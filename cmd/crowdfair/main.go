// Command crowdfair is the CLI front-end of the library: it runs
// marketplace simulations, audits traces against the fairness and
// transparency axioms, works with declarative transparency policies, and
// prints the reproduction's experiment tables.
//
// Subcommands:
//
//	crowdfair simulate -workers 200 -tasks 100 -assigner requester-centric -policy policy.tp -trace trace.jsonl -snapshot snapshot.json
//	crowdfair audit -trace trace.jsonl -snapshot snapshot.json
//	crowdfair policy -render policy.tp
//	crowdfair policy -compare a.tp b.tp
//	crowdfair experiments [-only E4] [-seed N]
//
// `go run ./cmd/crowdfair experiments > EXPERIMENTS.md` regenerates the
// committed tables (seed 42).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/crowdfair"
	"repro/internal/experiments"
	"repro/internal/model"
)

// errUsage reports a command line that was already answered with a usage
// message on stderr.
var errUsage = errors.New("usage")

func main() {
	os.Exit(exitCode(run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// exitCode prints err once, with one "crowdfair: " prefix, and maps it to
// the process exit status: 0 for success and -h, 2 for usage errors, 1
// for everything else. Library errors already carry the prefix.
func exitCode(err error, stderr io.Writer) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "crowdfair: ") {
		msg = "crowdfair: " + msg
	}
	fmt.Fprintln(stderr, msg)
	return 1
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		usage(stderr)
		return errUsage
	}
	cmds := map[string]func([]string, io.Writer, io.Writer) error{
		"simulate":    runSimulate,
		"audit":       runAudit,
		"policy":      runPolicy,
		"wages":       runWages,
		"experiments": runExperiments,
	}
	cmd, ok := cmds[args[0]]
	if !ok {
		usage(stderr)
		return errUsage
	}
	return cmd(args[1:], stdout, stderr)
}

func usage(stderr io.Writer) {
	fmt.Fprintln(stderr, `usage:
  crowdfair simulate [-workers N] [-tasks N] [-rounds N] [-assigner NAME] [-pay NAME] [-cancel NAME] [-policy FILE] [-seed N] [-trace FILE] [-snapshot FILE]
  crowdfair audit -trace FILE [-snapshot FILE]
  crowdfair policy (-render FILE | -compare FILE FILE | -check FILE)
  crowdfair wages -trace FILE
  crowdfair experiments [-only ID] [-seed N]`)
	fmt.Fprintf(stderr, "\nassigners: %s\npay schemes: %s\ncancellation: never, grace, on-quota\n",
		strings.Join(crowdfair.AssignerNames(), ", "),
		strings.Join(crowdfair.PaySchemeNames(), ", "))
}

// newFlags returns a subcommand's flag set; parse reports its errors (and
// usage) to stderr itself.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args, turning every error but -h into errUsage: the flag
// set has already printed it.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

// runExperiments prints E1–E11 (or the one -only names) as markdown.
func runExperiments(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("experiments", stderr)
	only := fs.String("only", "", "print a single experiment (E1..E11)")
	seed := fs.Uint64("seed", 42, "seed of every experiment's RNG streams")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *only == "" {
		fmt.Fprint(stdout, experiments.Markdown(*seed, experiments.All(*seed)))
		return nil
	}
	spec, ok := experiments.SpecByID(*only)
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (want E1..E11)", *only)
	}
	fmt.Fprint(stdout, spec.Run(*seed))
	return nil
}

func runSimulate(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("simulate", stderr)
	workers := fs.Int("workers", 200, "number of workers")
	tasks := fs.Int("tasks", 100, "number of tasks")
	rounds := fs.Int("rounds", 5, "assignment rounds")
	assigner := fs.String("assigner", "fair-round-robin", "assignment algorithm")
	payScheme := fs.String("pay", "fixed", "compensation scheme")
	cancel := fs.String("cancel", "never", "cancellation policy")
	policyFile := fs.String("policy", "", "transparency policy file (empty = opaque)")
	seed := fs.Uint64("seed", 42, "seed")
	traceOut := fs.String("trace", "", "write the event trace to this file")
	snapOut := fs.String("snapshot", "", "write the final platform snapshot (JSON) to this file")
	if err := parse(fs, args); err != nil {
		return err
	}

	spec := crowdfair.SimulationSpec{
		Workers: *workers, Tasks: *tasks, Rounds: *rounds,
		Assigner: *assigner, PayScheme: *payScheme, Cancellation: *cancel,
		Seed: *seed,
	}
	if *policyFile != "" {
		src, err := os.ReadFile(*policyFile)
		if err != nil {
			return err
		}
		pol, err := crowdfair.ParsePolicy(string(src))
		if err != nil {
			return err
		}
		spec.Policy = pol
	}
	res, err := crowdfair.Simulate(spec)
	if err != nil {
		return err
	}
	m := res.Metrics
	fmt.Fprintf(stdout, "simulated: %d submissions, mean quality %.3f, retention %.3f, accepted %.3f\n",
		m.Submitted, m.MeanQuality, m.RetentionRate, m.AcceptedRate)
	fmt.Fprintf(stdout, "requester utility %.2f, total paid %.2f, income gini %.3f, interrupted %d\n",
		m.RequesterUtility, m.TotalPaid, m.IncomeGini, m.Interrupted)

	fmt.Fprintln(stdout, "\nfairness audit:")
	for _, rep := range res.Platform.AuditFairness(crowdfair.DefaultAuditConfig()) {
		fmt.Fprintln(stdout, " ", rep)
	}
	a6, a7 := res.Platform.AuditTransparency(nil)
	fmt.Fprintln(stdout, "transparency audit:")
	fmt.Fprintln(stdout, " ", a6)
	fmt.Fprintln(stdout, " ", a7)

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := res.Platform.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "trace written to", *traceOut)
	}
	if *snapOut != "" {
		data, err := res.Platform.Store().Snapshot().Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*snapOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "snapshot written to", *snapOut)
	}
	return nil
}

func runAudit(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("audit", stderr)
	traceFile := fs.String("trace", "", "event trace (JSON lines)")
	snapFile := fs.String("snapshot", "", "platform snapshot (JSON); optional")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *traceFile == "" {
		return fmt.Errorf("audit: -trace is required")
	}

	var p *crowdfair.Platform
	if *snapFile != "" {
		data, err := os.ReadFile(*snapFile)
		if err != nil {
			return err
		}
		snap, err := model.DecodeSnapshot(data)
		if err != nil {
			return err
		}
		if p, err = crowdfair.NewPlatformFromSnapshot(snap); err != nil {
			return err
		}
	} else {
		p = crowdfair.NewPlatform(crowdfair.NewUniverse("unspecified"))
	}

	f, err := os.Open(*traceFile)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := p.LoadTrace(f); err != nil {
		return err
	}

	fmt.Fprintln(stdout, "fairness audit:")
	for _, rep := range p.AuditFairness(crowdfair.DefaultAuditConfig()) {
		fmt.Fprintln(stdout, " ", rep)
		for i, v := range rep.Violations {
			if i == 5 {
				fmt.Fprintf(stdout, "    ... and %d more\n", len(rep.Violations)-5)
				break
			}
			fmt.Fprintln(stdout, "   ", v)
		}
	}
	a6, a7 := p.AuditTransparency(nil)
	fmt.Fprintln(stdout, "transparency audit:")
	fmt.Fprintln(stdout, " ", a6)
	fmt.Fprintln(stdout, " ", a7)
	return nil
}

func runPolicy(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("policy", stderr)
	render := fs.String("render", "", "render a policy file to human-readable text")
	check := fs.String("check", "", "statically check a policy file")
	compare := fs.Bool("compare", false, "compare two policy files (positional args)")
	if err := parse(fs, args); err != nil {
		return err
	}

	switch {
	case *render != "":
		pol, err := loadPolicy(*render)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, crowdfair.RenderPolicy(pol))
		fmt.Fprintf(stdout, "transparency score: %.2f\n", crowdfair.PolicyScore(pol))
		return nil
	case *check != "":
		pol, err := loadPolicy(*check)
		if err != nil {
			return err
		}
		warnings := crowdfair.LintPolicy(pol)
		for _, w := range warnings {
			fmt.Fprintln(stdout, "warning:", w)
		}
		if len(warnings) == 0 {
			fmt.Fprintln(stdout, "policy ok")
		} else {
			fmt.Fprintf(stdout, "policy ok with %d warning(s)\n", len(warnings))
		}
		return nil
	case *compare:
		rest := fs.Args()
		if len(rest) != 2 {
			return fmt.Errorf("policy -compare needs exactly two files")
		}
		a, err := loadPolicy(rest[0])
		if err != nil {
			return err
		}
		b, err := loadPolicy(rest[1])
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, crowdfair.ComparePolicies(a, b))
		return nil
	default:
		return fmt.Errorf("policy: one of -render, -check, -compare is required")
	}
}

func runWages(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("wages", stderr)
	traceFile := fs.String("trace", "", "event trace (JSON lines)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *traceFile == "" {
		return fmt.Errorf("wages: -trace is required")
	}
	p := crowdfair.NewPlatform(crowdfair.NewUniverse("unspecified"))
	f, err := os.Open(*traceFile)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := p.LoadTrace(f); err != nil {
		return err
	}
	report := p.WageReport()
	rank := report.RankRequesters()
	if len(rank) == 0 {
		fmt.Fprintln(stdout, "no completed work episodes in trace")
		return nil
	}
	fmt.Fprintln(stdout, "estimated hourly wages per requester (best first):")
	for _, req := range rank {
		fmt.Fprintf(stdout, "  %-12s %s\n", req, report.ByRequester[req])
	}
	return nil
}

func loadPolicy(path string) (*crowdfair.Policy, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return crowdfair.ParsePolicy(string(src))
}
