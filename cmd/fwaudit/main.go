// Command fwaudit lints a single firewall policy with the analyses a
// design team runs before the comparison phase: pairwise anomaly
// detection (shadowing / generalization / correlation / pairwise
// redundancy, per reference [1]), exact union-shadowing detection, and
// complete redundancy detection ([19]).
//
// Usage:
//
//	fwaudit [-schema five|four|paper] [-format name] policy.fw
//
// Exit status is 0 for a clean policy, 1 when findings are reported, and
// 2 on usage or input errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"diversefw/internal/anomaly"
	"diversefw/internal/cli"
	"diversefw/internal/fdd"
	"diversefw/internal/redundancy"
	"diversefw/internal/rule"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("fwaudit", flag.ContinueOnError)
	schemaName := fs.String("schema", "five", "packet schema: "+cli.SchemaNames())
	format := fs.String("format", "text", "input format: "+cli.FormatNames())
	chain := fs.String("chain", "INPUT", "chain to read for iptables/nftables inputs")
	complete := fs.Bool("complete", true, "also run the complete (semantic) redundancy check")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fwaudit [-schema name] [-format name] policy.fw")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	schema, err := cli.Schema(*schemaName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwaudit:", err)
		return 2
	}
	p, err := cli.LoadPolicyFormat(schema, fs.Arg(0), *format, *chain)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwaudit:", err)
		return 2
	}

	findings := 0

	anomalies := anomaly.Detect(p)
	if len(anomalies) > 0 {
		fmt.Printf("pairwise anomalies (%d):\n", len(anomalies))
		for _, a := range anomalies {
			fmt.Printf("  %s\n", a)
			fmt.Printf("    rule %d: %s\n", a.I+1, rule.FormatRule(p.Schema, p.Rules[a.I]))
			fmt.Printf("    rule %d: %s\n", a.J+1, rule.FormatRule(p.Schema, p.Rules[a.J]))
		}
		findings += len(anomalies)
	}

	// One construction serves both exact checks.
	b, err := fdd.NewTrimmedBuilderContext(context.Background(), p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwaudit:", err)
		return 2
	}
	shadowed := anomaly.CompletelyShadowed(b.Effective())
	if len(shadowed) > 0 {
		fmt.Printf("rules that are never a first match (%d):\n", len(shadowed))
		for _, i := range shadowed {
			fmt.Printf("  rule %d: %s\n", i+1, rule.FormatRule(p.Schema, p.Rules[i]))
		}
		findings += len(shadowed)
	}

	if *complete {
		compacted, removed, err := redundancy.RemoveAll(context.Background(), b)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fwaudit:", err)
			return 2
		}
		if len(removed) > 0 {
			fmt.Printf("semantically redundant rules (%d removable; %d -> %d rules):\n",
				len(removed), p.Size(), compacted.Size())
			for _, i := range removed {
				fmt.Printf("  rule %d: %s\n", i+1, rule.FormatRule(p.Schema, p.Rules[i]))
			}
			findings += len(removed)
		}
	}

	if findings == 0 {
		fmt.Println("no findings: no anomalies, no shadowed rules, no redundancy")
		return 0
	}
	return 1
}
