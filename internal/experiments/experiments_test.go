package experiments

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

// Small-scale parameters keep the full suite fast in CI while still
// exercising every experiment's code path and shape assertions.

func findRow(t *Table, match func(row []string) bool) []string {
	for _, r := range t.Rows {
		if match(r) {
			return r
		}
	}
	return nil
}

func cell(t *testing.T, row []string, i int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[i], 64)
	if err != nil {
		t.Fatalf("cell %d = %q: %v", i, row[i], err)
	}
	return v
}

func TestE1Shape(t *testing.T) {
	tab := E1Assignment(E1Params{Workers: 80, Tasks: 40, Seed: 1})
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	byAlgo := make(map[string][]string)
	for _, r := range tab.Rows {
		byAlgo[r[0]] = r
	}
	// Fair mechanisms have zero Axiom-1 violations.
	for _, name := range []string{"self-appointment", "worker-centric", "fair-round-robin"} {
		if rate := cell(t, byAlgo[name], 1); rate != 0 {
			t.Errorf("%s violation rate = %v, want 0", name, rate)
		}
	}
	// Requester-centric violates and earns at least as much utility as the
	// fair baseline.
	rc := byAlgo["requester-centric"]
	if rate := cell(t, rc, 1); rate == 0 {
		t.Error("requester-centric shows no discrimination")
	}
	if cell(t, rc, 2) < cell(t, byAlgo["fair-round-robin"], 2) {
		t.Error("requester-centric utility below fair baseline")
	}
}

func TestE2Shape(t *testing.T) {
	tab := E2Visibility(E2Params{Workers: 60, Tasks: 30, Seed: 1})
	byAlgo := make(map[string][]string)
	for _, r := range tab.Rows {
		byAlgo[r[0]] = r
	}
	if pairs := cell(t, byAlgo["self-appointment"], 1); pairs == 0 {
		t.Fatal("no comparable pairs generated — Axiom 2 untested")
	}
	if rate := cell(t, byAlgo["self-appointment"], 2); rate != 0 {
		t.Errorf("self-appointment Axiom 2 rate = %v", rate)
	}
	if rate := cell(t, byAlgo["requester-centric"], 2); rate == 0 {
		t.Error("requester-centric shows no Axiom 2 violations")
	}
}

func TestE3Shape(t *testing.T) {
	tab := E3Compensation(E3Params{Contributors: 12, Clusters: 3, Tasks: 6, Seed: 1})
	byScheme := make(map[string][]string)
	for _, r := range tab.Rows {
		byScheme[r[0]] = r
	}
	if rate := cell(t, byScheme["similarity-fair"], 2); rate != 0 {
		t.Errorf("similarity-fair violation rate = %v, want 0", rate)
	}
	if rate := cell(t, byScheme["quality-based"], 2); rate == 0 {
		t.Error("quality-based shows no Axiom 3 violations")
	}
	// The fair scheme conserves the quality-based total.
	if byScheme["quality-based"][4] != byScheme["similarity-fair"][4] {
		t.Errorf("totals differ: %v vs %v", byScheme["quality-based"][4], byScheme["similarity-fair"][4])
	}
}

func TestE4Shape(t *testing.T) {
	tab := E4Detection(E4Params{
		Workers: 60, Questions: 30,
		SpamFractions: []float64{0.2, 0.4},
		SpamModels:    []workload.SpamModel{workload.SpamRandom, workload.SpamUniform},
		Threshold:     0.5, Seed: 1,
	})
	if len(tab.Rows) != 16 { // 4 detectors × 2 models × 2 fractions
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		detector, spamModel := r[0], r[1]
		f1 := cell(t, r, 5)
		switch {
		case detector == "gold-question":
			// Gold questions are robust to both models.
			if f1 < 0.8 {
				t.Errorf("gold-question %s: F1 = %v, want >= 0.8", spamModel, f1)
			}
		case detector == "agreement" && spamModel == "random",
			detector == "majority-deviation" && spamModel == "random",
			detector == "label-entropy" && spamModel == "uniform":
			// Each crowd-signal detector on its suited model.
			if f1 < 0.8 {
				t.Errorf("%s on %s spam: F1 = %v, want >= 0.8", detector, spamModel, f1)
			}
		case detector == "label-entropy" && spamModel == "random":
			// The documented blind spot.
			if f1 > 0.5 {
				t.Errorf("label-entropy on random spam: F1 = %v, expected blindness", f1)
			}
		}
	}
}

func TestE5Shape(t *testing.T) {
	tab := E5Completion(E5Params{
		WorkersPerTask: 8, Tasks: 10, OverPublish: []float64{1.0, 2.0}, Seed: 1,
	})
	for _, r := range tab.Rows {
		policy, over := r[0], r[1]
		violations := cell(t, r, 4)
		switch {
		case policy != "on-quota" && violations != 0:
			t.Errorf("%s/%s: violations = %v, want 0", policy, over, violations)
		case policy == "on-quota" && over == "2.0x" && violations == 0:
			t.Error("on-quota 2x over-publication produced no violations")
		}
	}
}

func TestE6Shape(t *testing.T) {
	// Labour-scarce regime (like the default parameters): task slots exceed
	// worker capacity, so churn costs output. In a labour-surplus regime the
	// survivorship effect can invert the totals — see the E6 notes.
	tab := E6Retention(E6Params{Workers: 20, Tasks: 120, Rounds: 4, Seed: 1})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Retention must be non-decreasing in transparency score, and the full
	// policy must strictly beat opaque on retention.
	var prev float64 = -1
	for _, r := range tab.Rows {
		ret := cell(t, r, 2)
		if ret < prev-1e-9 {
			t.Errorf("retention not monotone: %v after %v", ret, prev)
		}
		prev = ret
	}
	opaque, full := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	if cell(t, full, 2) <= cell(t, opaque, 2) {
		t.Error("full transparency does not beat opaque on retention")
	}
	if cell(t, full, 3) <= cell(t, opaque, 3) {
		t.Error("full transparency does not beat opaque on total output")
	}
}

func TestE7Shape(t *testing.T) {
	tab := E7CheckScale(E7Params{Sizes: []int{60, 120}, Seed: 1})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Per size: identical violation counts, fewer indexed pairs.
	for i := 0; i < len(tab.Rows); i += 2 {
		ex, idx := tab.Rows[i], tab.Rows[i+1]
		if ex[3] != idx[3] {
			t.Errorf("violations differ at %s workers: %s vs %s", ex[0], ex[3], idx[3])
		}
		if cell(t, idx, 2) >= cell(t, ex, 2) {
			t.Errorf("indexed checked %s pairs, exhaustive %s", idx[2], ex[2])
		}
	}
}

func TestE8Shape(t *testing.T) {
	tab := E8RuleEngine(E8Params{RuleCounts: []int{1, 20}, Evaluations: 100, Seed: 1})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if perSec := cell(t, r, 4); perSec < 1000 {
			t.Errorf("throughput %v evals/sec is implausibly low", perSec)
		}
	}
}

func TestE9Shape(t *testing.T) {
	tab := E9Ablations(E9Params{Workers: 60, Tasks: 30, Lambdas: []float64{0, 1}, Seed: 1})
	// Section A: cosine@0.85 must find at least as many violations as
	// exact@0.85 (it keeps more pairs in the audited set).
	var cosineV, exactV float64
	for _, r := range tab.Rows {
		switch {
		case r[0] == "A:axiom1-measure" && strings.HasPrefix(r[1], "cosine"):
			cosineV = cell(t, r, 3)
		case r[0] == "A:axiom1-measure" && strings.HasPrefix(r[1], "exact"):
			exactV = cell(t, r, 3)
		}
	}
	if cosineV < exactV {
		t.Errorf("cosine found %v violations, exact %v — stricter measure found more", cosineV, exactV)
	}
	// Section B: lambda=1 must earn at least lambda=0's utility.
	var u0, u1 float64
	for _, r := range tab.Rows {
		if r[0] != "B:tradeoff" {
			continue
		}
		if r[1] == "lambda=0.00" {
			u0 = cell(t, r, 2)
		}
		if r[1] == "lambda=1.00" {
			u1 = cell(t, r, 2)
		}
	}
	if u1 < u0 {
		t.Errorf("lambda=1 utility %v below lambda=0's %v", u1, u0)
	}
	// Section C: the Axiom-1 repair must report zero violations after.
	row := findRow(tab, func(r []string) bool { return r[0] == "C:repair-axiom1" })
	if row == nil || row[4] != "violations-after=0" {
		t.Errorf("repair row = %v", row)
	}
	// Similarity-fair pay needs no top-ups.
	row = findRow(tab, func(r []string) bool {
		return r[0] == "C:repair-axiom3" && r[1] == "similarity-fair"
	})
	if row == nil || row[3] != "top-ups=0" {
		t.Errorf("similarity-fair repair row = %v", row)
	}
}

func TestE10Shape(t *testing.T) {
	tab := E10Bonus(E10Params{
		Workers: 30, Tasks: 120, Rounds: 4,
		HonourRates: []float64{0, 1}, Seed: 1,
	})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	renege, honour := tab.Rows[0], tab.Rows[1]
	if cell(t, renege, 1) != 0 {
		t.Errorf("honour-rate 0 paid %v bonuses", cell(t, renege, 1))
	}
	if cell(t, honour, 2) != 0 {
		t.Errorf("honour-rate 1 reneged %v bonuses", cell(t, honour, 2))
	}
	if cell(t, honour, 3) <= cell(t, renege, 3) {
		t.Error("honouring bonuses does not improve retention")
	}
	if cell(t, honour, 4) <= cell(t, renege, 4) {
		t.Error("honouring bonuses does not increase total paid")
	}
	if cell(t, honour, 5) <= cell(t, renege, 5) {
		t.Error("honouring bonuses does not improve satisfaction")
	}
}

// timingColumns names the wall-clock columns of each table: the only
// cells of EXPERIMENTS.md that are not a function of the seed.
var timingColumns = map[string][]string{
	"E7":  {"wall-time"},
	"E8":  {"parse-time", "eval-time-total", "evals-per-sec"},
	"E11": {"cold-start", "full-total", "incr-total", "speedup"},
}

// maskTimings replaces every timing cell of a rendered document with "*".
func maskTimings(doc string) string {
	lines := strings.Split(doc, "\n")
	var id string
	var header bool
	var masked map[int]bool
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "## "):
			id, _, _ = strings.Cut(strings.TrimPrefix(line, "## "), ":")
			header = true
		case strings.HasPrefix(line, "| ") && strings.HasSuffix(line, " |"):
			cells := strings.Split(line[2:len(line)-2], " | ")
			if header {
				header = false
				masked = map[int]bool{}
				for j, c := range cells {
					masked[j] = slices.Contains(timingColumns[id], c)
				}
				continue
			}
			for j := range cells {
				if masked[j] {
					cells[j] = "*"
				}
			}
			lines[i] = "| " + strings.Join(cells, " | ") + " |"
		}
	}
	return strings.Join(lines, "\n")
}

// TestAllProducesElevenTables is the golden test of the reproduction's
// tables: All(42) must render EXPERIMENTS.md cell for cell, skipping only
// the wall-clock columns.
func TestAllProducesElevenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("all eleven experiments in -short mode")
	}
	tables := All(42)
	if len(tables) != 11 {
		t.Fatalf("tables = %d", len(tables))
	}
	for i, tab := range tables {
		if want := "E" + strconv.Itoa(i+1); tab.ID != want {
			t.Errorf("table %d id = %s, want %s", i, tab.ID, want)
		}
	}
	committed, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(maskTimings(Markdown(42, tables)), "\n")
	want := strings.Split(maskTimings(string(committed)), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("EXPERIMENTS.md line %d differs from a seed-42 run "+
				"(regenerate with go run ./cmd/crowdfair experiments > EXPERIMENTS.md):\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "EX", Title: "demo", Columns: []string{"a", "b"}, Notes: []string{"n1", "n2"}}
	tab.AddRow("x", 1.5)
	tab.AddRow(2, "y")
	want := "## EX: demo\n\n| a | b |\n| --- | --- |\n| x | 1.5000 |\n| 2 | y |\n\nn1\nn2\n"
	if got := tab.String(); got != want {
		t.Errorf("rendering:\n%s\nwant:\n%s", got, want)
	}
}

func TestSyntheticPolicyWellFormed(t *testing.T) {
	for _, n := range []int{1, 7, 50} {
		pol := SyntheticPolicy(n)
		if len(pol.Rules) != n {
			t.Fatalf("rules = %d, want %d", len(pol.Rules), n)
		}
	}
}

func TestE11Shape(t *testing.T) {
	tab := E11IncrementalAudit(E11Params{Sizes: []int{80}, Rounds: 3, DirtyFrac: 0.05, Seed: 1})
	if tab.ID != "E11" || len(tab.Rows) != 1 {
		t.Fatalf("table = %+v", tab)
	}
	// The engine's contract: violations identical to the full rescan in
	// every round.
	if got := tab.Rows[0][len(tab.Rows[0])-1]; got != "true" {
		t.Fatalf("identical-violations = %q", got)
	}
}
