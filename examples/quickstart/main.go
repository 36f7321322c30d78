// Quickstart: the paper's running example, end to end.
//
// Two teams implement the same requirement specification — "the mail
// server 192.168.0.1 receives e-mail (port 25); the malicious domain
// 224.168.0.0/16 is blocked; everything else is accepted" — and the
// library finds every functional discrepancy between their firewalls
// (the paper's Table 3), exactly and in human-readable form.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"diversefw/internal/core"
	"diversefw/internal/paper"
	"diversefw/internal/textio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// Design phase: each team submits its version (Tables 1 and 2).
	session, err := core.NewSession(paper.Schema())
	if err != nil {
		log.Fatal(err)
	}
	if err := session.AddVersion("Team A", paper.TeamA()); err != nil {
		log.Fatal(err)
	}
	if err := session.AddVersion("Team B", paper.TeamB()); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Team A's firewall (Table 1):")
	if err := textio.WritePolicyTable(os.Stdout, paper.TeamA()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nTeam B's firewall (Table 2):")
	if err := textio.WritePolicyTable(os.Stdout, paper.TeamB()); err != nil {
		log.Fatal(err)
	}

	// Comparison phase: all functional discrepancies, exactly.
	reports, err := session.Compare()
	if err != nil {
		log.Fatal(err)
	}
	report := reports[0].Report
	fmt.Printf("\nAll functional discrepancies (Table 3) — %d found:\n", len(report.Discrepancies))
	if err := textio.WriteDiscrepancyTable(os.Stdout, paper.Schema(), report.Discrepancies, "Team A", "Team B"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npipeline: construction %v, comparison %v\n",
		report.Timing.Construct, report.Timing.Compare)
	fmt.Println("\nThe teams now discuss each row: may the malicious domain e-mail the")
	fmt.Println("server? must non-TCP e-mail pass? may non-mail traffic reach the server?")
	fmt.Println("(See examples/redesign for the resolution phase.)")
}
