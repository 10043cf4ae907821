package crowdfair

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/audit"
	"repro/internal/similarity"
	"repro/internal/store"
)

// TestAuditIncrementalReusesEngineWithCustomAttrPolicy checks that engine
// reuse, keyed by audit.ConfigSig, holds for a config with per-field
// tolerance overrides and an ignore set: AuditIncremental calls must reuse
// the warmed engine instead of silently cold-starting every time.
func TestAuditIncrementalReusesEngineWithCustomAttrPolicy(t *testing.T) {
	p := demoPlatform(t)
	cfg := DefaultAuditConfig()
	ap := similarity.AttrPolicy{
		NumTolerance:   0.1,
		FieldTolerance: map[string]float64{"acceptance_ratio": 0.25},
		IgnoreFields:   map[string]bool{"internal_id": true},
	}
	cfg.AttrPolicy = &ap
	p.AuditIncremental(cfg)
	first := p.auditor
	if first == nil {
		t.Fatal("no engine after first audit")
	}
	// Re-audit with a semantically identical but distinct config value.
	cfg2 := DefaultAuditConfig()
	ap2 := similarity.AttrPolicy{
		NumTolerance:   0.1,
		FieldTolerance: map[string]float64{"acceptance_ratio": 0.25},
		IgnoreFields:   map[string]bool{"internal_id": true, "noise": false},
	}
	cfg2.AttrPolicy = &ap2
	p.AuditIncremental(cfg2)
	if p.auditor != first {
		t.Fatal("identical custom attribute policy cold-started the incremental auditor")
	}
	// A genuinely different policy must still reset the engine.
	cfg3 := DefaultAuditConfig()
	ap3 := similarity.AttrPolicy{
		NumTolerance:   0.1,
		FieldTolerance: map[string]float64{"acceptance_ratio": 0.5},
	}
	cfg3.AttrPolicy = &ap3
	p.AuditIncremental(cfg3)
	if p.auditor == first {
		t.Fatal("changed attribute policy reused the old engine")
	}
}

// TestOpenPlatformRoundTrip drives the durable public API end to end:
// build a platform, audit, checkpoint, reopen, and check both the state
// and that the auditor warm-started.
func TestOpenPlatformRoundTrip(t *testing.T) {
	dir := t.TempDir()
	u := NewUniverse("translation", "labeling")
	cfg := DefaultAuditConfig()
	p, err := OpenPlatform(dir, u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Durable() {
		t.Fatal("platform not durable")
	}
	if err := p.AddRequester(&Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		w := &Worker{
			ID:       WorkerID(fmt.Sprintf("w%d", i)),
			Declared: Attributes{"country": Str("jp")},
			Computed: Attributes{"acceptance_ratio": Num(0.9)},
			Skills:   u.MustVector("labeling"),
		}
		if err := p.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		task := &Task{ID: TaskID(fmt.Sprintf("t%d", i)), Requester: "r1", Skills: u.MustVector("labeling"), Reward: 1}
		if err := p.PostTask(task); err != nil {
			t.Fatal(err)
		}
		if err := p.Offer(task.ID, WorkerID(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := p.AuditIncremental(cfg)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := OpenPlatform(dir, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.auditor == nil {
		t.Fatal("auditor did not warm-start from the checkpoint")
	}
	if n := p2.Store().WorkerCount(); n != 8 {
		t.Fatalf("recovered %d workers", n)
	}
	if n := p2.Log().Len(); n != p.Log().Len() {
		t.Fatalf("recovered %d events, want %d", n, p.Log().Len())
	}
	got := p2.AuditIncremental(cfg)
	if len(got) != len(want) {
		t.Fatalf("report count %d", len(got))
	}
	for i := range got {
		if got[i].Checked != want[i].Checked || len(got[i].Violations) != len(want[i].Violations) {
			t.Fatalf("%s: warm reports diverge: checked %d/%d violations %d/%d",
				got[i].Axiom, got[i].Checked, want[i].Checked,
				len(got[i].Violations), len(want[i].Violations))
		}
	}
	// Mutating after recovery keeps persisting: a third open sees it.
	if err := p2.AddWorker(&Worker{ID: "wz", Skills: u.MustVector("translation")}); err != nil {
		t.Fatal(err)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	p3, err := OpenPlatform(dir, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if n := p3.Store().WorkerCount(); n != 9 {
		t.Fatalf("third open: %d workers", n)
	}
}

// TestOpenPlatformConfigMismatchColdStarts pins the safety net: audit
// state saved under one config must not warm-start an auditor under a
// different one.
func TestOpenPlatformConfigMismatchColdStarts(t *testing.T) {
	dir := t.TempDir()
	u := NewUniverse("translation", "labeling")
	cfg := DefaultAuditConfig()
	p, err := OpenPlatform(dir, u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddRequester(&Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddWorker(&Worker{ID: "w1", Skills: u.MustVector("labeling")}); err != nil {
		t.Fatal(err)
	}
	p.AuditIncremental(cfg)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	other := DefaultAuditConfig()
	other.SkillThreshold = 0.5
	p2, err := OpenPlatform(dir, nil, other)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.auditor != nil {
		t.Fatal("mismatched config warm-started the auditor")
	}
	// And the cold start still works.
	if reports := p2.AuditIncremental(other); len(reports) != 5 {
		t.Fatalf("cold audit returned %d reports", len(reports))
	}
}

func TestLoadTraceRefusedOnDurablePlatform(t *testing.T) {
	dir := t.TempDir()
	u := NewUniverse("labeling")
	p, err := OpenPlatform(dir, u, DefaultAuditConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.LoadTrace(nil); err == nil {
		t.Fatal("LoadTrace succeeded on a durable platform")
	}
}

// TestSingularMutatorsReturnWALErrors: on a durable platform a write-ahead
// log error comes back from the single-entity mutators as an error, never
// a panic. With one-byte segments every event batch rotates, and with the
// events directory gone the rotation cannot open the next segment.
func TestSingularMutatorsReturnWALErrors(t *testing.T) {
	dir := t.TempDir()
	u := NewUniverse("labeling")
	p, err := OpenPlatformWAL(dir, u, DefaultAuditConfig(), WALOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := os.RemoveAll(store.EventsDir(dir)); err != nil {
		t.Fatal(err)
	}
	if err := p.AddWorker(&Worker{ID: "w1", Skills: u.MustVector("labeling")}); err == nil {
		t.Fatal("AddWorker reported success with the events directory gone")
	}
}

// TestOpenPlatformDamagedAuditSidecarColdStarts: the auditor's saved state
// is an accelerator, never a dependency — with the sidecar cut short,
// bit-flipped or gone the platform still opens, the auditor cold-starts,
// and its first report equals the from-scratch audit.
func TestOpenPlatformDamagedAuditSidecarColdStarts(t *testing.T) {
	dir := t.TempDir()
	u := NewUniverse("translation", "labeling")
	cfg := DefaultAuditConfig()
	p, err := OpenPlatform(dir, u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddRequester(&Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		w := &Worker{
			ID:       WorkerID(fmt.Sprintf("w%02d", i)),
			Computed: Attributes{"acceptance_ratio": Num(0.9)},
			Skills:   u.MustVector("labeling"),
		}
		if err := p.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		task := &Task{ID: TaskID(fmt.Sprintf("t%d", i)), Requester: "r1", Skills: u.MustVector("labeling"), Reward: 1}
		if err := p.PostTask(task); err != nil {
			t.Fatal(err)
		}
		if err := p.Offer(task.ID, WorkerID(fmt.Sprintf("w%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	p.AuditIncremental(cfg)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Offer("t0", "w07"); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	sidecars, err := filepath.Glob(filepath.Join(dir, "audit-*.bin"))
	if err != nil || len(sidecars) != 1 {
		t.Fatalf("sidecars %v (%v), want one", sidecars, err)
	}
	good, err := os.ReadFile(sidecars[0])
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x20
	for _, tc := range []struct {
		name string
		data []byte // nil: the file is removed
		warm bool
	}{
		{"intact", good, true},
		{"truncated", good[:len(good)-7], false},
		{"bit flip", flipped, false},
		{"missing", nil, false},
	} {
		if tc.data == nil {
			err = os.Remove(sidecars[0])
		} else {
			err = os.WriteFile(sidecars[0], tc.data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		p2, err := OpenPlatform(dir, nil, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if warm := p2.auditor != nil; warm != tc.warm {
			t.Fatalf("%s: warm start = %v, want %v", tc.name, warm, tc.warm)
		}
		if got, want := p2.AuditIncremental(cfg), p2.AuditFairness(cfg); !audit.ViolationsEqual(got, want) {
			t.Fatalf("%s: first incremental audit differs from the full audit", tc.name)
		}
		if err := p2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
