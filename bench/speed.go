package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The benchmark shares a few cores of a host whose other tenants slow it
// by up to a third for minutes at a time. No statistic over one run
// removes a slowdown that lasts the whole run, so each run also measures
// the host: a fixed reference workload, run by a child process while the
// server is stopped, before the set-ups and after every round. Time
// metrics are reported at the reference's nominal speed.
//
// The reference uses nothing from the code under test, so no change to
// that code can move it. Its unit of work is what the pipeline does most,
// in miniature: hash-consing small nodes into a map, chasing their
// pointers, a JSON round trip of a report-sized document, and a chase
// through a table far larger than the caches, as the server's walks over
// a heap of hundreds of MiB are. One repetition runs the unit alone and
// then once on every core at the same time, as the server's concurrent
// constructions and pair workers do.
//
// A repetition reports its wall time and its CPU time. They differ when
// the host takes the cores away outright (the wall time grows, the CPU
// time does not) rather than slowing them; wall-clock metrics are scaled
// by the first and CPU time per op by the second.

// referenceEnv, when set, makes the benchmark binary the reference's
// child process: it reads a repetition count per line on standard input
// and answers each with one JSON line of repetitions, until end of input.
const referenceEnv = "BENCH_REFERENCE"

// referenceReps is how many repetitions one sample runs; every
// repetition counts toward the run's medians.
const referenceReps = 3

// The reference's median wall and CPU time per repetition on the 2-vCPU
// VM the bounds were set on, in a quiet hour. They only fix the scale of
// the reported figures.
const (
	referenceNominalWallMs = 150.0
	referenceNominalCPUMs  = 225.0
)

// referenceChaseSlots sizes the chase table: 16 Mi uint32 slots, 64 MiB.
const referenceChaseSlots = 16 << 20

// referenceRep is one repetition's times.
type referenceRep struct {
	WallMs float64 `json:"wall_ms"`
	CPUMs  float64 `json:"cpu_ms"`
}

// referenceMain is the child's side. It builds the chase table and runs
// one untimed repetition to grow the heap, then serves samples; each
// timed repetition starts after a collection, from the same heap.
func referenceMain(in io.Reader, out io.Writer) int {
	table := chaseTable()
	sums := make([]uint64, runtime.GOMAXPROCS(0))
	rep := func() {
		sums[0] += referenceUnit(table, 0)
		var wg sync.WaitGroup
		for c := range sums {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sums[c] += referenceUnit(table, c)
			}(c)
		}
		wg.Wait()
	}
	rep()
	lines := bufio.NewScanner(in)
	for lines.Scan() {
		n, err := strconv.Atoi(lines.Text())
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bench: reference: bad request %q\n", lines.Text())
			return 2
		}
		reps := make([]referenceRep, n)
		for i := range reps {
			runtime.GC()
			cpu0, start := cpuTime(), time.Now()
			rep()
			reps[i] = referenceRep{WallMs: ms(time.Since(start)), CPUMs: ms(cpuTime() - cpu0)}
		}
		b, _ := json.Marshal(reps) // a slice of float pairs always marshals
		fmt.Fprintln(out, string(b))
	}
	for _, s := range sums {
		if s == 0 {
			fmt.Fprintln(os.Stderr, "bench: reference computed nothing")
			return 1
		}
	}
	return 0
}

// cpuTime is this process's user+system CPU time, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func xorshift(x *uint64) uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return *x
}

// chaseTable is a single random cycle through every slot (Sattolo's
// shuffle), so a chase touches a new cache line at every step.
func chaseTable() []uint32 {
	t := make([]uint32, referenceChaseSlots)
	for i := range t {
		t[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(t) - 1; i > 0; i-- {
		j := int(xorshift(&x) % uint64(i))
		t[i], t[j] = t[j], t[i]
	}
	return t
}

type refNode struct {
	lo, hi *refNode
	key    [3]uint64
}

type refRow struct {
	Lo, Hi [5]string
	A, B   string
}

// referenceUnit is the reference's unit of work; it returns a checksum
// so none of it can be optimised away. Concurrent units chase from
// different starting slots.
func referenceUnit(table []uint32, start int) uint64 {
	x := uint64(88172645463325252)
	seen := make(map[[3]uint64]*refNode)
	var last *refNode
	for i := 0; i < 75_000; i++ {
		v := xorshift(&x)
		k := [3]uint64{v % 20_000, uint64(i % 7), v >> 60}
		n, ok := seen[k]
		if !ok {
			n = &refNode{lo: last, key: k}
			if last != nil {
				n.hi = last.lo
			}
			seen[k] = n
		}
		last = n
	}
	var sum uint64
	for k := 0; k < 4; k++ {
		steps := 0
		for n := last; n != nil && steps < 100_000; n = n.lo {
			sum += n.key[0]
			steps++
		}
	}
	rows := make([]refRow, 750)
	for i := range rows {
		for f := range rows[i].Lo {
			rows[i].Lo[f] = strconv.FormatUint(xorshift(&x)%65536, 10)
			rows[i].Hi[f] = strconv.FormatUint(xorshift(&x)%65536, 10)
		}
		rows[i].A, rows[i].B = "accept", "discard"
	}
	b, err := json.Marshal(rows)
	if err != nil {
		panic(err)
	}
	var back []refRow
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}
	p := uint32(start * 7919)
	for k := 0; k < 250_000; k++ {
		p = table[p]
	}
	return sum + uint64(len(back)) + uint64(len(seen)) + uint64(p) + 1
}

// hostSpeed is the parent's side: the child process and every
// repetition it has timed.
type hostSpeed struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	lines *bufio.Scanner
	reps  []referenceRep
}

// startHostSpeed starts the reference's child process: this binary with
// referenceEnv set.
func startHostSpeed() (*hostSpeed, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), referenceEnv+"=1")
	cmd.Stderr = os.Stderr
	// The child must not outlive a benchmark that dies without stopping
	// it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference: %w", err)
	}
	return &hostSpeed{cmd: cmd, in: in, lines: bufio.NewScanner(out)}, nil
}

// sample has the child time referenceReps repetitions.
func (h *hostSpeed) sample() error {
	if _, err := fmt.Fprintln(h.in, referenceReps); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if !h.lines.Scan() {
		return fmt.Errorf("reference ended: %v", h.lines.Err())
	}
	var reps []referenceRep
	if err := json.Unmarshal(h.lines.Bytes(), &reps); err != nil || len(reps) != referenceReps {
		return fmt.Errorf("reference printed %q", h.lines.Bytes())
	}
	h.reps = append(h.reps, reps...)
	return nil
}

// stop ends the child and waits for it, reporting a child that failed.
// It is safe to call more than once; later calls return nil.
func (h *hostSpeed) stop() error {
	if h == nil || h.in == nil {
		return nil
	}
	h.in.Close() // the child's exit status below reports any failure
	h.in = nil
	if err := h.cmd.Wait(); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	return nil
}

// factors are how much faster the host ran than nominal: nominal / the
// median repetition, for wall time and for CPU time. A time measured on
// the host, multiplied by its factor, reads as at nominal speed.
func (h *hostSpeed) factors() (wall, cpu float64) {
	var ws, cs []float64
	for _, r := range h.reps {
		ws = append(ws, r.WallMs)
		cs = append(cs, r.CPUMs)
	}
	return referenceNominalWallMs / median(ws), referenceNominalCPUMs / median(cs)
}
