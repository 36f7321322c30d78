package api

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"diversefw/internal/field"
	"diversefw/internal/jobs"
)

// maxJobPolicies bounds one job's policy set. Jobs exist precisely for
// work too large to hold a request open for, so the cap is looser than
// maxCrossPolicies — but 64 policies is already 2016 crosscompare
// pairs, plenty for the paper's N-team setting.
const maxJobPolicies = 64

// jobsCollection serves /v1/jobs: POST submits, GET lists.
func (s *Server) jobsCollection(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		s.jobList(w, r)
	case http.MethodPost:
		s.jobSubmit(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use GET or POST"))
	}
}

// jobList serves GET /v1/jobs. ?state= keeps only jobs in one lifecycle
// state and ?limit= bounds the page (newest first), so the listing stays
// readable while retention holds hundreds of finished jobs. Malformed
// values are 400s, not silently ignored filters.
func (s *Server) jobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := q.Get("state")
	switch jobs.State(state) {
	case "", jobs.StateQueued, jobs.StateRunning, jobs.StateCompleted, jobs.StateCanceled:
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("unknown state %q: use queued, running, completed, or canceled", state))
		return
	}
	limit := 0
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("limit must be a positive integer, got %q", ls))
			return
		}
		limit = n
	}
	var listed []jobs.Snapshot
	for _, snap := range s.jobs.List() {
		if state != "" && snap.State != jobs.State(state) {
			continue
		}
		listed = append(listed, snap)
		if limit > 0 && len(listed) == limit {
			break
		}
	}
	// Listings stay light: progress and state, no per-pair bodies.
	respondWith(r, w, http.StatusOK, func(b []byte) []byte { return appendJobList(b, listed) })
}

func (s *Server) jobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobSubmitRequest
	if !decodeInto(w, r, &req) {
		return
	}
	schema, err := field.SchemaByName(req.Schema)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeUnknownSchema, err)
		return
	}
	if len(req.Policies) < 2 {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("need at least 2 policies, got %d", len(req.Policies)))
		return
	}
	if len(req.Policies) > maxJobPolicies {
		writeError(w, http.StatusBadRequest, CodeTooManyPolicies,
			fmt.Errorf("at most %d policies per job, got %d", maxJobPolicies, len(req.Policies)))
		return
	}
	names, policies, ok := parseNamedPolicies(r.Context(), w, schema, req.Policies)
	if !ok {
		return
	}

	spec := jobs.Spec{
		SchemaName: req.Schema,
		Names:      names,
		Policies:   policies,
	}
	if spec.SchemaName == "" {
		spec.SchemaName = "five"
	}
	switch req.Kind {
	case "", string(jobs.KindCrossCompare):
		spec.Kind = jobs.KindCrossCompare
		if len(req.Pairs) > 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("pairs are only valid for kind %q", jobs.KindBatchDiff))
			return
		}
	case string(jobs.KindBatchDiff):
		spec.Kind = jobs.KindBatchDiff
		if len(req.Pairs) == 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("kind %q needs at least 1 pair", jobs.KindBatchDiff))
			return
		}
		index := make(map[string]int, len(names))
		for i, name := range names {
			index[name] = i
		}
		for k, ps := range req.Pairs {
			i, ok := index[ps.A]
			if !ok {
				writeError(w, http.StatusBadRequest, CodeBadRequest,
					fmt.Errorf("pair %d: unknown policy %q", k+1, ps.A))
				return
			}
			j, ok := index[ps.B]
			if !ok {
				writeError(w, http.StatusBadRequest, CodeBadRequest,
					fmt.Errorf("pair %d: unknown policy %q", k+1, ps.B))
				return
			}
			if i == j {
				writeError(w, http.StatusBadRequest, CodeBadRequest,
					fmt.Errorf("pair %d: %q compared with itself", k+1, ps.A))
				return
			}
			spec.Pairs = append(spec.Pairs, jobs.Pair{I: i, J: j})
			spec.PairNames = append(spec.PairNames, ps.Name)
		}
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("unknown job kind %q", req.Kind))
		return
	}

	snap, err := s.jobs.Submit(spec)
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrTooManyJobs):
			// The store is full of live or recently finished jobs; the
			// hint tracks queue pressure the same way shed requests do.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, CodeTooManyJobs,
				fmt.Errorf("job store at capacity, retry later"))
		case errors.Is(err, jobs.ErrClosed):
			writeError(w, http.StatusServiceUnavailable, CodeServerOverloaded,
				fmt.Errorf("server shutting down"))
		default:
			writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	respondWith(r, w, http.StatusAccepted, func(b []byte) []byte {
		return append(appendJobStatus(b, snap, true), '\n')
	})
}

// jobByID serves /v1/jobs/{id}: GET polls, DELETE cancels.
func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var (
		snap jobs.Snapshot
		err  error
	)
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		snap, err = s.jobs.Get(id)
	case http.MethodDelete:
		snap, err = s.jobs.Cancel(id)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use GET or DELETE"))
		return
	}
	if err != nil {
		writeError(w, http.StatusNotFound, CodeJobNotFound,
			fmt.Errorf("no job %q (unknown, or purged after its retention window)", id))
		return
	}
	respondWith(r, w, http.StatusOK, func(b []byte) []byte {
		return append(appendJobStatus(b, snap, true), '\n')
	})
}
