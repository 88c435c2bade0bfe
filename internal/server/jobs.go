package server

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/defender-game/defender/internal/obs"
)

// jobsPending gauges the number of jobs still awaiting their solve
// (catalogued in OBSERVABILITY.md).
var jobsPending = obs.Default().Gauge("server.jobs.pending")

// jobBody is the JobStatus that GET /v1/jobs/{id} writes, with the
// result left as the stored compact JSON: encoding/json re-indents a
// RawMessage with the rest of the body, so the bytes equal those of the
// JobStatus it mirrors without decoding the result.
type jobBody struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Poll   string          `json:"poll"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  *ErrorInfo      `json:"error,omitempty"`
}

// job is one asynchronous solve handle. Fields are guarded by the owning
// store's mutex; get returns snapshot copies.
type job struct {
	id     string
	status string
	result []byte // compact JSON of the SolveResult, shared with the cache
	apiErr *apiError
	doneAt time.Time
}

// jobStore tracks 202 job handles: sequential ids (deterministic for the
// golden contract tests — uniqueness only needs to hold per process),
// completion records, and TTL-based purging of finished jobs so a
// long-running server does not accumulate every result it ever computed.
// Every create, complete and get purges, so the store holds the pending
// jobs plus the jobs finished within one TTL, whether or not anyone polls.
// Pending jobs are never purged: their broker request is still in flight
// and will complete.
type jobStore struct {
	mu   sync.Mutex
	seq  int
	jobs map[string]*job
	// finished holds the ids of finished jobs in completion order, oldest
	// first: the purge pops expired jobs off its front.
	finished []string
	pending  int
	ttl      time.Duration
	now      func() time.Time // injectable for the TTL tests
}

func newJobStore(ttl time.Duration) *jobStore {
	return &jobStore{jobs: make(map[string]*job), ttl: ttl, now: time.Now}
}

// create registers a fresh pending job and returns its id.
func (s *jobStore) create() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeLocked()
	s.seq++
	id := fmt.Sprintf("j%08d", s.seq)
	s.jobs[id] = &job{id: id, status: JobPending}
	s.pending++
	jobsPending.Set(float64(s.pending))
	return id
}

// complete records a job's terminal state.
func (s *jobStore) complete(id string, result []byte, apiErr *apiError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeLocked()
	j, ok := s.jobs[id]
	if !ok || j.status != JobPending {
		return
	}
	j.result = result
	j.apiErr = apiErr
	j.doneAt = s.now()
	if apiErr == nil {
		j.status = JobDone
	} else {
		j.status = JobFailed
	}
	s.finished = append(s.finished, id)
	s.pending--
	jobsPending.Set(float64(s.pending))
}

// get returns a snapshot of the job, purging expired finished jobs on the
// way.
func (s *jobStore) get(id string) (job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeLocked()
	j, ok := s.jobs[id]
	if !ok {
		return job{}, false
	}
	return *j, true
}

// purgeLocked drops the finished jobs whose TTL has run out. Jobs finish
// in clock order, so the expired ones are a prefix of s.finished and the
// purge costs O(1) per job it drops; a clock that steps back can only
// delay a purge, never make one early. Callers hold s.mu.
func (s *jobStore) purgeLocked() {
	cutoff := s.now().Add(-s.ttl)
	for len(s.finished) > 0 {
		id := s.finished[0]
		if !s.jobs[id].doneAt.Before(cutoff) {
			return
		}
		delete(s.jobs, id)
		s.finished[0] = ""
		s.finished = s.finished[1:]
	}
}
