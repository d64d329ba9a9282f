package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateReadme = flag.Bool("update-readme", false,
	"rewrite README.md's shared-flag table from BindFlags")

const (
	readmePath       = "../../README.md"
	flagTableBegin   = "<!-- shared flags: generated from core.BindFlags by TestReadmeFlagTable (-update-readme) -->\n"
	flagTableEnd     = "<!-- end shared flags -->\n"
	sharedFlagsUsers = "`d3tsim`, `d3texp`"
)

// TestReadmeFlagTable keeps README's table of the flags both commands
// share identical to what BindFlags binds, so the documented set cannot
// drift from the code.
func TestReadmeFlagTable(t *testing.T) {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	BindFlags(fs, new(Config))
	escape := strings.NewReplacer("|", `\|`, "<", "&lt;", ">", "&gt;")
	var b strings.Builder
	b.WriteString("| flag | command | effect |\n|---|---|---|\n")
	fs.VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&b, "| `-%s` | %s | %s |\n", f.Name, sharedFlagsUsers, escape.Replace(f.Usage))
	})
	table := b.String()

	raw, err := os.ReadFile(readmePath)
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	begin, end := strings.Index(readme, flagTableBegin), strings.Index(readme, flagTableEnd)
	if begin < 0 || end < begin {
		t.Fatalf("README.md lacks the %q ... %q markers", flagTableBegin, flagTableEnd)
	}
	begin += len(flagTableBegin)
	if readme[begin:end] == table {
		return
	}
	if !*updateReadme {
		t.Fatalf("README.md's shared-flag table is stale; rerun with -update-readme. Want:\n%s", table)
	}
	if err := os.WriteFile(readmePath, []byte(readme[:begin]+table+readme[end:]), 0o644); err != nil {
		t.Fatal(err)
	}
}
