// Command docscheck keeps the repository's documentation consistent with the
// code. Run from the repository root (CI's docs workflow does):
//
//	go run ./internal/docscheck
//
// It enforces three contracts and exits non-zero listing every violation:
//
//  1. Flag tables cannot drift: every flag a binary's -help output declares
//     must appear as `-flag` inside that binary's "### `<binary>`" section of
//     README.md's command-line reference, and every `| `-flag` |` table row
//     must correspond to a live flag — so adding, renaming, or removing a
//     flag without updating the README fails CI, as does documenting a flag
//     that no longer exists.
//
//  2. Every Go package under cmd/ and internal/ must carry a package doc
//     comment (checked with go/parser, so build tags and generated files
//     do not matter).
//
//  3. Markdown links in the top-level documents (README.md, DESIGN.md,
//     ROADMAP.md, bench/corpus/README.md) must resolve: relative targets
//     must exist on disk, and #anchors must match a heading's GitHub slug
//     in the target document. External http(s) links are not fetched.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"unicode"
)

// binaries are the user-facing commands whose -help output is diffed against
// README.md's command-line reference tables.
var binaries = []string{
	"nosqsim", "nosq-experiments", "nosq-server", "nosq-worker", "nosq-tune", "nosq-trace",
}

// docs are the markdown documents whose links are checked.
var docs = []string{
	"README.md", "DESIGN.md", "ROADMAP.md",
	filepath.Join("bench", "corpus", "README.md"),
	filepath.Join("bench", "traces", "README.md"),
}

func main() {
	var problems []string
	problems = append(problems, checkFlagTables()...)
	problems = append(problems, checkPackageDocs()...)
	problems = append(problems, checkLinks()...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck: "+p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck: OK (%d binaries, package docs, %d documents)\n", len(binaries), len(docs))
}

var (
	helpFlagRe  = regexp.MustCompile(`(?m)^  -([A-Za-z0-9-]+)`)
	tableFlagRe = regexp.MustCompile("(?m)^\\| `-([A-Za-z0-9-]+)` \\|")
	codeFlagRe  = regexp.MustCompile("`-([A-Za-z0-9-]+)`")
)

// checkFlagTables diffs each binary's live -help flags against its README
// section, in both directions.
func checkFlagTables() (problems []string) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		return []string{err.Error()}
	}
	for _, bin := range binaries {
		section, ok := readmeSection(string(readme), bin)
		if !ok {
			problems = append(problems, fmt.Sprintf("README.md: no `### `%s`` section in the command-line reference", bin))
			continue
		}
		out, _ := exec.Command("go", "run", "./cmd/"+bin, "-h").CombinedOutput()
		live := map[string]bool{}
		for _, m := range helpFlagRe.FindAllStringSubmatch(string(out), -1) {
			live[m[1]] = true
		}
		if len(live) == 0 {
			problems = append(problems, fmt.Sprintf("%s: -h printed no flags (build failure?):\n%s", bin, out))
			continue
		}
		documented := map[string]bool{}
		for _, m := range codeFlagRe.FindAllStringSubmatch(section, -1) {
			documented[m[1]] = true
		}
		tabled := map[string]bool{}
		for _, m := range tableFlagRe.FindAllStringSubmatch(section, -1) {
			tabled[m[1]] = true
		}
		for _, f := range sorted(live) {
			if !documented[f] {
				problems = append(problems, fmt.Sprintf("README.md: `%s` flag -%s is missing from its command-line reference section", bin, f))
			}
		}
		for _, f := range sorted(tabled) {
			if !live[f] {
				problems = append(problems, fmt.Sprintf("README.md: `%s` table documents -%s, which the binary no longer has", bin, f))
			}
		}
	}
	return problems
}

// readmeSection extracts the README fragment from the binary's `### `name“
// heading to the next heading of any level.
func readmeSection(readme, bin string) (string, bool) {
	heading := "### `" + bin + "`"
	i := strings.Index(readme, "\n"+heading+"\n")
	if i < 0 {
		return "", false
	}
	rest := readme[i+1+len(heading):]
	if j := strings.Index(rest, "\n#"); j >= 0 {
		rest = rest[:j]
	}
	return rest, true
}

// checkPackageDocs requires a package doc comment in every package under
// cmd/ and internal/.
func checkPackageDocs() (problems []string) {
	var dirs []string
	for _, root := range []string{"cmd", "internal"} {
		filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				dirs = append(dirs, path)
			}
			return nil
		})
	}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		matches, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		var sources []string
		for _, m := range matches {
			if !strings.HasSuffix(m, "_test.go") {
				sources = append(sources, m)
			}
		}
		if len(sources) == 0 {
			continue
		}
		found := false
		for _, src := range sources {
			f, err := parser.ParseFile(fset, src, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", src, err))
				continue
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				found = true
				break
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf("%s: package has no package doc comment", dir))
		}
	}
	return problems
}

var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// checkLinks verifies every inline markdown link in the top-level documents.
func checkLinks() (problems []string) {
	for _, doc := range docs {
		body, err := os.ReadFile(doc)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		text := stripFences(string(body))
		for _, m := range linkRe.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, anchor, _ := strings.Cut(target, "#")
			resolved := doc
			if path != "" {
				resolved = filepath.Join(filepath.Dir(doc), path)
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems, fmt.Sprintf("%s: broken link %q: %v", doc, target, err))
					continue
				}
			}
			if anchor != "" {
				if !hasAnchor(resolved, anchor) {
					problems = append(problems, fmt.Sprintf("%s: link %q: no heading slugs to #%s in %s", doc, target, anchor, resolved))
				}
			}
		}
	}
	return problems
}

// hasAnchor reports whether any heading in the markdown file slugs to the
// given GitHub-style anchor.
func hasAnchor(path, anchor string) bool {
	body, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	for _, line := range strings.Split(stripFences(string(body)), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		title := strings.TrimLeft(line, "#")
		if slug(strings.TrimSpace(title)) == anchor {
			return true
		}
	}
	return false
}

// slug reproduces GitHub's heading-anchor algorithm: lowercase, drop
// everything but letters, digits, spaces, hyphens and underscores, then turn
// spaces into hyphens.
func slug(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r == ' ':
			b.WriteRune('-')
		case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// stripFences blanks ``` fenced code blocks so their contents are never
// mistaken for links or headings.
func stripFences(text string) string {
	var out []string
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			out = append(out, "")
			continue
		}
		if fenced {
			out = append(out, "")
		} else {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func sorted(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
