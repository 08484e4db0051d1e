package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// lineBreak matches a line break with the indentation and Go comment
// marker that continue a wrapped sentence on the next line.
var lineBreak = regexp.MustCompile(`[ \t]*\n[ \t]*(?://[ \t]?)?`)

// citations returns the section names text cites in the document doc:
// each quoted name right after "doc," or "doc", as in (DESIGN.md,
// "Gates"), with a name wrapped across lines — comment markers and all
// — joined by one space. A quoted name starts with a letter or digit,
// as every heading does.
func citations(doc, text string) []string {
	re := regexp.MustCompile(regexp.QuoteMeta(doc) + `,?\s+"([\p{L}\p{N}][^"]*)"`)
	var out []string
	for _, m := range re.FindAllStringSubmatch(lineBreak.ReplaceAllString(text, " "), -1) {
		out = append(out, m[1])
	}
	return out
}

// headings returns the "## " section headings of a markdown document.
func headings(md string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(md, "\n") {
		if name, ok := strings.CutPrefix(line, "## "); ok {
			out[strings.TrimSpace(name)] = true
		}
	}
	return out
}

// TestDesignCitationsResolve keeps the pointers into DESIGN.md live:
// every citation of a DESIGN.md section in a .go or .md file of the
// repository must quote one of its "## " headings, so a renamed or
// deleted section fails here instead of leaving its readers at a dead
// end. CHANGES.md and ROADMAP.md are logs that quote sections as they
// were, and hidden directories (VCS and build caches) hold no sources;
// neither is read.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := headings(string(design))
	found := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".md" || path == "CHANGES.md" || path == "ROADMAP.md" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, name := range citations("DESIGN.md", string(data)) {
			found++
			if !sections[name] {
				t.Errorf("%s cites DESIGN.md section %q, which is not a heading of DESIGN.md", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Errorf("found no DESIGN.md citation at all; the pattern no longer matches the repository's style")
	}
}

// TestDesignWithinBudget keeps DESIGN.md under its 30 KiB budget
// (ROADMAP.md item 24): a section that grows pays for it by trimming
// another, so the document stays one reading.
func TestDesignWithinBudget(t *testing.T) {
	const budget = 30 << 10
	info, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > budget {
		t.Errorf("DESIGN.md is %d bytes, over its %d-byte budget", info.Size(), budget)
	}
}

// TestCitationsFollowWrappedComments pins what citations extracts: a
// citation with or without the comma, one wrapped across Go comment
// lines or markdown lines, and not a quoted string that starts with
// something other than a letter or digit — and that a name no heading
// carries is the one left over.
func TestCitationsFollowWrappedComments(t *testing.T) {
	doc := "# Notes\n\n## Gates\n\n## Scale tier (million nodes)\n\ntext\n"
	text := "// deleted (NOTES.md, \"Scale tier (million\n\t// nodes)\"); see NOTES.md \"Gates\"\n" +
		"and (NOTES.md, \"Why there is no\nparallel drain\"), not NOTES.md, \"…\".\n"
	got := citations("NOTES.md", text)
	want := []string{"Scale tier (million nodes)", "Gates", "Why there is no parallel drain"}
	if !slices.Equal(got, want) {
		t.Fatalf("citations = %q, want %q", got, want)
	}
	sections := headings(doc)
	var dead []string
	for _, name := range got {
		if !sections[name] {
			dead = append(dead, name)
		}
	}
	if !slices.Equal(dead, []string{"Why there is no parallel drain"}) {
		t.Errorf("names without a heading = %q, want only the deleted section", dead)
	}
}
