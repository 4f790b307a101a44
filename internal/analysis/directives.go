package analysis

import (
	"strings"
)

// The suppression directive. There is one, it belongs to maporder, and its
// reason is mandatory:
//
//	//aqlint:sorted -- reason
//
// It asserts that the loop's effects are order-independent or that the
// iteration source was sorted out of band, and applies to findings on its own
// line and on the line directly below it (so it can ride at the end of the
// `for` line or stand alone above it). No other analyzer has an escape hatch.

const directivePrefix = "aqlint:sorted"

// parseDirective decodes one comment text (with the "//" already present)
// into the directive's reason; ok is false when the comment is no directive.
// A directive with an empty reason suppresses nothing (maporder reports it).
func parseDirective(text string) (reason string, ok bool) {
	body, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), directivePrefix)
	if !ok || (body != "" && body[0] != ' ' && body[0] != '-') {
		return "", false
	}
	_, reason, _ = strings.Cut(body, "--")
	return strings.TrimSpace(reason), true
}

// suppressions is the set of file:line positions a reasoned directive covers.
type lineKey struct {
	file string
	line int
}

type suppressions map[lineKey]bool

// collectSuppressions scans one package's comments and registers each
// reasoned directive for its own line and the line below.
func collectSuppressions(pkg *Package) suppressions {
	s := suppressions{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if reason, ok := parseDirective(c.Text); ok && reason != "" {
					pos := pkg.Fset.Position(c.Pos())
					s[lineKey{pos.Filename, pos.Line}] = true
					s[lineKey{pos.Filename, pos.Line + 1}] = true
				}
			}
		}
	}
	return s
}
