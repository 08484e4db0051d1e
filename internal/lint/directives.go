package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// arrowlint's comment directives, in the style of go:build /
// go:generate — no space after //, so gofmt leaves them alone and they
// are visibly machine-facing:
//
//	//arrow:allow <check> <reason...>   suppress one check here
//	//arrow:hotpath [note...]           mark a function as a zero-alloc path
//	//arrow:deterministic               opt a file's package into the
//	//                                  deterministic set
//
// An allow directive placed on its own line covers the next line; at
// the end of a line it covers that line; in the doc comment of a
// declaration it covers the whole declaration. The reason is not
// optional: an unexplained suppression is exactly the kind of entropy
// the linter exists to stop.
const directivePrefix = "//arrow:"

// knownChecks are the analyzer names an allow directive may reference.
var knownChecks = map[string]bool{
	"determinism": true,
	"hotpath":     true,
	"msgswitch":   true,
	"schedorder":  true,
}

type allowSite struct {
	check string
	// file-and-line scope: [fromLine, toLine] in filename
	filename string
	fromLine int
	toLine   int
}

type hotpathFunc struct {
	decl *ast.FuncDecl
}

type directives struct {
	allows        []allowSite
	hotpaths      []hotpathFunc
	deterministic bool
}

// covers reports whether the directive suppresses check at pos.
func (a allowSite) covers(check string, pos token.Position) bool {
	return a.check == check && a.filename == pos.Filename &&
		pos.Line >= a.fromLine && pos.Line <= a.toLine
}

// allowed reports whether an //arrow:allow for check covers pos.
func (d *directives) allowed(check string, pos token.Position) bool {
	for _, a := range d.allows {
		if a.covers(check, pos) {
			return true
		}
	}
	return false
}

// parseDirective splits an //arrow: comment into verb and argument
// rest; ok is false for ordinary comments.
func parseDirective(text string) (verb, rest string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	body := text[len(directivePrefix):]
	verb, rest, _ = strings.Cut(body, " ")
	return verb, strings.TrimSpace(rest), true
}

// scanDirectives indexes every arrowlint directive in the package.
// Malformed directives are left out of the index (so they cannot
// silence anything) and re-reported by DirectiveAnalyzer.
func scanDirectives(fset *token.FileSet, files []*ast.File) *directives {
	d := &directives{}
	for _, f := range files {
		docRanges := declDocRanges(f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, rest, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				switch verb {
				case "allow":
					check, reason, _ := strings.Cut(rest, " ")
					if !knownChecks[check] || strings.TrimSpace(reason) == "" {
						continue // malformed; DirectiveAnalyzer reports it
					}
					pos := fset.Position(c.Pos())
					site := allowSite{
						check:    check,
						filename: pos.Filename,
						fromLine: pos.Line,
						toLine:   pos.Line + 1,
					}
					if decl, isDoc := docRanges[cg]; isDoc {
						end := fset.Position(decl.End())
						site.toLine = end.Line
					}
					d.allows = append(d.allows, site)
				case "deterministic":
					d.deterministic = true
				}
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				if verb, _, ok := parseDirective(c.Text); ok && verb == "hotpath" {
					d.hotpaths = append(d.hotpaths, hotpathFunc{decl: fn})
				}
			}
		}
	}
	return d
}

// declDocRanges maps each comment group that is a declaration's doc
// comment to that declaration, so allow directives in docs can scope to
// the whole decl.
func declDocRanges(f *ast.File) map[*ast.CommentGroup]ast.Decl {
	m := map[*ast.CommentGroup]ast.Decl{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Doc != nil {
				m[d.Doc] = decl
			}
		case *ast.GenDecl:
			if d.Doc != nil {
				m[d.Doc] = decl
			}
		}
	}
	return m
}

// DirectiveAnalyzer validates arrowlint directives themselves: unknown
// verbs, allow without a known check name, and allow without a reason
// are findings — a typoed directive that silently suppresses nothing
// (or worse, everything) must not pass the lint.
var DirectiveAnalyzer = &Analyzer{
	Name: "arrowdir",
	Run:  runDirectiveCheck,
}

func runDirectiveCheck(pass *Pass) error {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, rest, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				switch verb {
				case "allow":
					check, reason, _ := strings.Cut(rest, " ")
					if check == "" {
						pass.Reportf(c.Pos(), "arrow:allow needs a check name and a reason")
					} else if !knownChecks[check] {
						pass.Reportf(c.Pos(), "arrow:allow references unknown check %q", check)
					} else if strings.TrimSpace(reason) == "" {
						pass.Reportf(c.Pos(), "arrow:allow %s needs a reason", check)
					}
				case "hotpath", "deterministic":
					// Placement of hotpath is validated by the hotpath
					// analyzer (it must be a FuncDecl doc to take effect).
				default:
					pass.Reportf(c.Pos(), "unknown arrowlint directive arrow:%s", verb)
				}
			}
		}
	}
	return nil
}
