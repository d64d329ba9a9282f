package core

import (
	"reflect"
	"strings"
	"testing"
)

func TestRunExperimentWithDurability(t *testing.T) {
	cfg := tinyScale().base()
	cfg.Faults = "kill:max@60+80"
	cfg.Durability = DurabilityConfig{
		Dir:           t.TempDir(),
		SnapshotEvery: 64,
		Fsync:         "never",
	}
	out, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := out.Resilience
	if r == nil {
		t.Fatal("durable kill run returned no resilience stats")
	}
	if r.Kills != 1 {
		t.Errorf("kills = %d, want 1", r.Kills)
	}
	if r.DiskRecoveries != 1 {
		t.Errorf("disk recoveries = %d, want 1", r.DiskRecoveries)
	}
	if r.ReplayedRecords == 0 {
		t.Error("recovery replayed no records")
	}
	if r.MeanReplay <= 0 {
		t.Errorf("mean replay = %v, want > 0", r.MeanReplay)
	}
	if out.Fidelity <= 0 || out.Fidelity > 1 {
		t.Errorf("fidelity %v out of range", out.Fidelity)
	}
}

// Durability without faults still routes through the resilient runner —
// the WAL writes happen on the delivery path it owns — but must inject
// nothing.
func TestDurabilityAloneRoutesResilient(t *testing.T) {
	cfg := tinyScale().base()
	cfg.Durability = DurabilityConfig{Dir: t.TempDir(), Fsync: "never"}
	out, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := out.Resilience
	if r == nil {
		t.Fatal("durable run returned no resilience stats")
	}
	if r.Crashes != 0 || r.Kills != 0 || r.DiskRecoveries != 0 {
		t.Errorf("fault-free durable run injected faults: %+v", r)
	}
}

// SnapshotEvery 0 means the wal default of 256, so both settings must
// recover the same state: through a kill mid-run and through a rerun over
// the same directory, which restores every repository from disk.
func TestSnapshotEveryZeroIsDefault(t *testing.T) {
	run := func(every int) []*Outcome {
		cfg := tinyScale().base()
		cfg.Faults = "kill:max@60+80"
		cfg.Durability = DurabilityConfig{Dir: t.TempDir(), SnapshotEvery: every, Fsync: "never"}
		var outs []*Outcome
		for range 2 {
			out, err := RunExperiment(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out.Config = Config{} // differs by the setting under test
			outs = append(outs, out)
		}
		return outs
	}
	zero, def := run(0), run(256)
	if zero[1].Resilience.RestoredAtStart == 0 {
		t.Fatal("rerun over the log directory restored nothing")
	}
	if !reflect.DeepEqual(zero, def) {
		t.Errorf("SnapshotEvery 0 and 256 diverged:\n  0:   %+v %+v\n  256: %+v %+v",
			zero[0].Resilience, zero[1].Resilience, def[0].Resilience, def[1].Resilience)
	}
}

func TestConfigValidatesDurability(t *testing.T) {
	cfg := tinyScale().base()
	cfg.Durability = DurabilityConfig{Dir: "x", SnapshotEvery: -1}
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted negative snapshot interval")
	}
	cfg.Durability = DurabilityConfig{Dir: "x", Fsync: "sometimes"}
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted unknown fsync policy")
	}
	cfg.Durability = DurabilityConfig{Dir: "x", SnapshotEvery: 8, Fsync: "batch"}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate rejected good durability config: %v", err)
	}
	cfg.Faults = "kill:max@5+10"
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate rejected kill fault spec: %v", err)
	}
}

func TestFigureRecoveryDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps are slow")
	}
	fig, err := FigureRecoveryDisk(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "res-recovery-disk" {
		t.Errorf("figure ID = %q", fig.ID)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(fig.Series))
	}
	for _, se := range fig.Series {
		if len(se.X) != len(snapGrid) || len(se.Y) != len(snapGrid) {
			t.Errorf("series %q has %d/%d points, want %d", se.Label, len(se.X), len(se.Y), len(snapGrid))
		}
	}
	replay := fig.Series[0]
	if !strings.Contains(replay.Label, "replay") {
		t.Errorf("first series label = %q", replay.Label)
	}
	// More commits between snapshots means a longer log tail to replay.
	if replay.Y[len(replay.Y)-1] < replay.Y[0] {
		t.Errorf("replay time shrank as the snapshot interval grew: %v", replay.Y)
	}
}
