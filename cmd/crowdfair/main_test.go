package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// cli runs the command as main would and returns what it printed and its
// exit status.
func cli(args ...string) (stdout, stderr string, code int) {
	var out, errOut bytes.Buffer
	code = exitCode(run(args, &out, &errOut), &errOut)
	return out.String(), errOut.String(), code
}

func TestRunOnlySingleExperiment(t *testing.T) {
	out, _, code := cli("experiments", "-only", "E3", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.HasPrefix(out, "## E3: ") || strings.Count(out, "## ") != 1 {
		t.Fatalf("-only E3 printed more or less than the E3 table:\n%s", out)
	}
	if !strings.Contains(out, "| similarity-fair | ") {
		t.Fatalf("E3 table has no similarity-fair row:\n%s", out)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	out, errOut, code := cli("experiments", "-only", "E42")
	if code != 1 || out != "" {
		t.Fatalf("exit %d, stdout %q", code, out)
	}
	if want := "crowdfair: experiments: unknown experiment \"E42\" (want E1..E11)\n"; errOut != want {
		t.Fatalf("stderr %q, want %q", errOut, want)
	}
	if _, errOut, code := cli("experiments", "-seed", "abc"); code != 2 || !strings.Contains(errOut, "invalid value") {
		t.Fatalf("bad -seed: exit %d, stderr %q", code, errOut)
	}
}

// TestErrorPrintedOnce pins one message with one prefix, whether or not
// the library already prefixed it.
func TestErrorPrintedOnce(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"simulate", "-assigner", "nope"}, "crowdfair: unknown assigner nope\n"},
		{[]string{"policy"}, "crowdfair: policy: one of -render, -check, -compare is required\n"},
		{[]string{"wages"}, "crowdfair: wages: -trace is required\n"},
	} {
		out, errOut, code := cli(c.args...)
		if code != 1 || out != "" || errOut != c.want {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 and %q", c.args, code, out, errOut, c.want)
		}
	}
	for _, args := range [][]string{nil, {"nope"}} {
		if _, errOut, code := cli(args...); code != 2 || !strings.HasPrefix(errOut, "usage:") {
			t.Errorf("%v: exit %d, stderr %q; want usage and exit 2", args, code, errOut)
		}
	}
}

// TestSimulateAuditWagesRoundTrip writes a simulation's trace and reads it
// back: the trace-only verdicts (Axioms 5–7) must match the simulation's
// own, and the wage report must find the trace's work episodes.
func TestSimulateAuditWagesRoundTrip(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	sim, _, code := cli("simulate", "-workers", "30", "-tasks", "15", "-rounds", "2", "-trace", trace)
	if code != 0 || !strings.Contains(sim, "trace written to "+trace) {
		t.Fatalf("simulate: exit %d\n%s", code, sim)
	}
	audit, _, code := cli("audit", "-trace", trace)
	if code != 0 {
		t.Fatalf("audit: exit %d", code)
	}
	for _, axiom := range []string{"Axiom 5 ", "Axiom 6:", "Axiom 7:"} {
		want, got := lineWith(sim, axiom), lineWith(audit, axiom)
		if want == "" || got != want {
			t.Errorf("%s: audit of the trace %q, simulation %q", axiom, got, want)
		}
	}
	wages, _, code := cli("wages", "-trace", trace)
	if code != 0 || !strings.HasPrefix(wages, "estimated hourly wages per requester") ||
		!strings.Contains(wages, "episodes") {
		t.Fatalf("wages: exit %d\n%s", code, wages)
	}
}

func lineWith(out, substr string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, substr) {
			return l
		}
	}
	return ""
}
