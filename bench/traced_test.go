package main

import (
	"path/filepath"
	"testing"
	"time"
)

// TestTracedReplayStartsFromEmptyJournal pins that a traced crosscompare
// replay does not inherit the jobs an earlier replay journaled in the
// same directory: each starts from an empty store, so replays stay
// independent and never run into the store's job cap.
func TestTracedReplayStartsFromEmptyJournal(t *testing.T) {
	s := crossSchedule(1, 4)
	dir := filepath.Join(t.TempDir(), "journal-traced")
	for run := 0; run < 2; run++ {
		tr, err := runTraced(s, time.Minute, dir)
		if err != nil {
			t.Fatal(err)
		}
		if tr.measured != len(s.ops) || len(tr.jobPairMs) == 0 {
			t.Fatalf("run %d replayed %d ops and %d jobs, want %d ops and some jobs", run, tr.measured, len(tr.jobPairMs), len(s.ops))
		}
		if tr.jobsRecovered != 0 {
			t.Fatalf("run %d opened a journal holding %d jobs, want 0", run, tr.jobsRecovered)
		}
	}
}
