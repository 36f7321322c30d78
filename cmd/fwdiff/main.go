// Command fwdiff compares two firewall policy files and prints every
// functional discrepancy between them — the comparison phase of diverse
// firewall design, in the format of the paper's Table 3.
//
// Usage:
//
//	fwdiff [-schema five|four|paper] [-format name] [-v] [-json]
//	       [-trace trace.json] a.fw b.fw
//
// -trace writes the run's span tree (construct and the compare.direct
// diff walk, with FDD node counts and discrepancy stats) to the named
// file; load it with docs/OBSERVABILITY.md's reading guide or feed the
// spans to jq.
//
// Exit status is 0 when the policies are equivalent, 1 when they differ,
// and 2 on usage or input errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"diversefw/internal/api"
	"diversefw/internal/cli"
	"diversefw/internal/engine"
	"diversefw/internal/textio"
	"diversefw/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("fwdiff", flag.ContinueOnError)
	schemaName := fs.String("schema", "five", "packet schema: "+cli.SchemaNames())
	format := fs.String("format", "text", "input format: "+cli.FormatNames())
	chain := fs.String("chain", "INPUT", "chain to read for iptables/nftables inputs")
	verbose := fs.Bool("v", false, "print per-phase timing and path statistics")
	jsonOut := fs.Bool("json", false, "emit the report as JSON (the /v1/diff wire format)")
	traceFile := fs.String("trace", "", "write the run's span tree to this file as JSON")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fwdiff [-schema name] [-format name] [-v] [-trace file] a.fw b.fw")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	schema, err := cli.Schema(*schemaName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwdiff:", err)
		return 2
	}
	pa, err := cli.LoadPolicyFormat(schema, fs.Arg(0), *format, *chain)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwdiff:", err)
		return 2
	}
	pb, err := cli.LoadPolicyFormat(schema, fs.Arg(1), *format, *chain)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwdiff:", err)
		return 2
	}

	// One-shot runs gain nothing from the cache, but going through the
	// engine keeps the CLI on the same code path the server uses.
	ctx := context.Background()
	var tr *trace.Trace
	if *traceFile != "" {
		ctx, tr = trace.New(ctx, "fwdiff", "")
	}
	report, _, err := engine.New(engine.Config{}).DiffPolicies(ctx, pa, pb)
	if tr != nil {
		tr.Finish()
		// A failed trace write shouldn't mask the comparison result.
		if werr := trace.WriteFileJSON(*traceFile, tr.Snapshot()); werr != nil {
			fmt.Fprintln(os.Stderr, "fwdiff: writing trace:", werr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwdiff:", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(api.ConvertReport(schema, report)); err != nil {
			fmt.Fprintln(os.Stderr, "fwdiff:", err)
			return 2
		}
		if report.Equivalent() {
			return 0
		}
		return 1
	}

	nameA := filepath.Base(fs.Arg(0))
	nameB := filepath.Base(fs.Arg(1))
	if err := textio.WriteDiscrepancyTable(os.Stdout, schema, report.Discrepancies, nameA, nameB); err != nil {
		fmt.Fprintln(os.Stderr, "fwdiff:", err)
		return 2
	}
	if *verbose {
		fmt.Printf("\nterminal pairs compared: %d (differing: %d)\n", report.PathsCompared, report.RawPaths)
		fmt.Printf("construction %v, comparison %v (total %v)\n",
			report.Timing.Construct, report.Timing.Compare, report.Timing.Total())
	}
	if report.Equivalent() {
		return 0
	}
	return 1
}
