package main

import (
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"diversefw/internal/api"
)

func startInProcess(t *testing.T) *runner {
	t.Helper()
	srv := api.NewServer()
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	client := newClient()
	t.Cleanup(client.CloseIdleConnections)
	return newRunner(client, hs.URL)
}

// TestRoundsSendEveryOpOnce pins that the rounds split the schedule by
// op count and send each op exactly once, whatever the server's speed,
// and that between runs after every round.
func TestRoundsSendEveryOpOnce(t *testing.T) {
	d := startInProcess(t)
	s := diffWarmSchedule(1, 7)
	calls := 0
	// The CPU figures read this process's, which serves in process here.
	rounds, capped, err := runRounds(d, s, os.Getpid(), 3, time.Minute, func() error { calls++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if capped || len(rounds) != 3 || calls != 3 {
		t.Fatalf("capped=%v rounds=%d between calls=%d, want false, 3, 3", capped, len(rounds), calls)
	}
	for r, want := range []int{2, 2, 3} {
		if rounds[r].Ops != want || rounds[r].OK != want {
			t.Errorf("round %d = %+v, want %d ops answered", r, rounds[r], want)
		}
	}
	if len(d.records) != len(s.ops) {
		t.Fatalf("%d ops sent, want %d", len(d.records), len(s.ops))
	}
	for i, rec := range d.records {
		if rec.op != s.ops[i] {
			t.Fatalf("op %d sent out of order", i)
		}
	}
}

// TestRoundsStopPastLimit pins that no op is sent once the rounds have
// run past their limit, and that the run says so.
func TestRoundsStopPastLimit(t *testing.T) {
	d := startInProcess(t)
	s := diffWarmSchedule(1, 6)
	limit := 2 * time.Second // well past the first round's two cold diffs
	rounds, capped, err := runRounds(d, s, os.Getpid(), 3, limit, func() error { time.Sleep(limit); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !capped || len(rounds) != 1 || len(d.records) != 2 {
		t.Fatalf("capped=%v rounds=%d sent=%d, want true, 1, 2", capped, len(rounds), len(d.records))
	}
}
