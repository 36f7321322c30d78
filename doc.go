// Package diversefw is a complete Go implementation of "Diverse Firewall
// Design" (Liu & Gouda; DSN 2004, extended in IEEE TPDS 19(9), 2008):
// exact comparison of firewall policies via Firewall Decision Diagrams,
// the three-phase diverse design method (design, comparison, resolution),
// and firewall change-impact analysis — plus every substrate the paper's
// method and evaluation build on.
//
// The root package carries the repository-level benchmark suite
// (bench_test.go: one group per table and figure of the paper's
// evaluation) and the end-to-end integration tests. The library lives
// under internal/ — see README.md for the architecture map, DESIGN.md for
// the system inventory and experiment index, EXPERIMENTS.md for
// paper-vs-measured results, and docs/FORMATS.md for the file formats.
//
// Entry points:
//
//   - internal/core: the multi-team Session workflow and change-impact
//     facade.
//   - internal/compare: Diff (two firewalls), CrossCompare and DiffN
//     (N teams), the paper-reference path; the server schedules its
//     cross-comparison pairs on internal/jobs' coordinator.
//   - internal/resolve: the resolution phase generating the final,
//     verified firewall.
//   - cmd/: fwdiff, fwimpact, fwresolve, fwquery, fwaudit, fwtopo, fwgen,
//     fwcompile, fwbench, fwserved.
package diversefw
