package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckDocsFindsMissingComments exercises the rule on a synthetic
// file: exported identifiers without docs are reported, documented and
// unexported ones are not.
func TestCheckDocsFindsMissingComments(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

// Documented is fine.
func Documented() {}

func Undocumented() {}

func unexported() {}

type Bare struct{}

// Block docs cover a sole spec.
const Covered = 1

const (
	// Inline doc is fine.
	Inline = 1
	Naked  = 2
)

type hidden struct{}

func (hidden) Method() {}

// Exposed is documented.
type Exposed struct{}

func (Exposed) Method() {}
`
	path := filepath.Join(dir, "fixture.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	issues, err := CheckDocs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, issue := range issues {
		got = append(got, issue[strings.Index(issue, "exported "):])
	}
	want := []string{
		"exported function Undocumented is missing a doc comment",
		"exported type Bare is missing a doc comment",
		"exported const Naked is missing a doc comment",
		"exported method Method is missing a doc comment",
	}
	if len(got) != len(want) {
		t.Fatalf("issues = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("issue %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestCheckMarkdownLinksFindsBroken exercises the link checker on a
// synthetic tree: broken relative links are reported; good relative
// links, anchors and external URLs are not.
func TestCheckMarkdownLinksFindsBroken(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "other.md"), []byte("# other"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `# doc
[good](other.md) [anchored](other.md#sec) [web](https://example.com) [self](#local)
[broken](missing.md) ![img](missing.png)
`
	if err := os.WriteFile(filepath.Join(dir, "doc.md"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	issues, err := CheckMarkdownLinks([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 2 {
		t.Fatalf("issues = %q, want 2 (missing.md, missing.png)", issues)
	}
	for _, issue := range issues {
		if !strings.Contains(issue, "missing.") {
			t.Errorf("unexpected issue %q", issue)
		}
	}
}

// repoDocPaths lists the packages whose public surface the repository
// commits to keeping documented (the godoc contract). It is the one
// list: CI enforces it by running this package's tests.
func repoDocPaths(t *testing.T) []string {
	t.Helper()
	root := "../.."
	return []string{
		filepath.Join(root, "vqpy.go"),
		filepath.Join(root, "library.go"),
		filepath.Join(root, "fleet.go"),
		filepath.Join(root, "text.go"),
		filepath.Join(root, "internal/plan"),
		filepath.Join(root, "internal/exec"),
		filepath.Join(root, "internal/serve"),
		filepath.Join(root, "internal/store"),
		filepath.Join(root, "internal/index"),
		filepath.Join(root, "internal/reclog"),
		filepath.Join(root, "internal/lint"),
		filepath.Join(root, "internal/fleet"),
		filepath.Join(root, "internal/fault"),
		filepath.Join(root, "internal/video"),
		filepath.Join(root, "internal/track"),
		filepath.Join(root, "internal/config"),
		filepath.Join(root, "internal/metrics"),
		filepath.Join(root, "internal/models"),
		filepath.Join(root, "internal/bench"),
		filepath.Join(root, "internal/vql"),
	}
}

// TestRepoDocComments enforces the doc-comment rule over the repo's
// public API surface: the facade plus the plan / exec / serve / store /
// index / fleet / fault / video / track / config / metrics / models /
// bench packages.
// A failure names each undocumented exported identifier.
func TestRepoDocComments(t *testing.T) {
	issues, err := CheckDocs(repoDocPaths(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, issue := range issues {
		t.Error(issue)
	}
}

// TestRepoMarkdownLinks enforces relative-link hygiene over the repo's
// documentation set.
func TestRepoMarkdownLinks(t *testing.T) {
	root := "../.."
	issues, err := CheckMarkdownLinks([]string{
		filepath.Join(root, "README.md"),
		filepath.Join(root, "DESIGN.md"),
		filepath.Join(root, "docs"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, issue := range issues {
		t.Error(issue)
	}
}
