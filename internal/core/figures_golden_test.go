package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Regenerate with -update-figure-goldens only for an intentional,
// reviewed output change.
var updateFigureGoldens = flag.Bool("update-figure-goldens", false,
	"rewrite testdata/figures/*.golden from the current figure output")

// TestFigureGoldens pins every registry figure byte-identical to its
// committed golden under testdata/figures: a refactor of the runner, the
// serving fleets or the durability glue must not move a single rendered
// digit. Layers that reshape a run when attached (queries, virtual
// sessions, durability, obs) are thereby also pinned inert when unset —
// the figures that predate them carry none of their config.
//
// One column is capacity-derived rather than computed: vserve-scale's
// bytes/session sums slice capacities, so a toolchain that changes
// append's growth policy may move it — regenerate that golden then.
func TestFigureGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps are slow")
	}
	for id, fn := range Figures() {
		id, fn := id, fn
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			fig, err := fn(tinyScale())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := fig.Fprint(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "figures", id+".golden")
			if *updateFigureGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("figure %s has no golden; run with -update-figure-goldens: %v", id, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("figure %s output drifted from its golden:\n--- golden ---\n%s\n--- got ---\n%s",
					id, want, buf.Bytes())
			}
		})
	}
}
