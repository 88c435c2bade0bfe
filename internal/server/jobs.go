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
// Pending jobs are never purged: their broker request is still in flight
// and will complete.
type jobStore struct {
	mu   sync.Mutex
	seq  int
	jobs map[string]*job
	ttl  time.Duration
	now  func() time.Time // injectable for the TTL tests
}

func newJobStore(ttl time.Duration) *jobStore {
	return &jobStore{jobs: make(map[string]*job), ttl: ttl, now: time.Now}
}

// create registers a fresh pending job and returns its id.
func (s *jobStore) create() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	id := fmt.Sprintf("j%08d", s.seq)
	s.jobs[id] = &job{id: id, status: JobPending}
	s.pendingLocked()
	return id
}

// complete records a job's terminal state.
func (s *jobStore) complete(id string, result []byte, apiErr *apiError) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	s.pendingLocked()
}

// get returns a snapshot of the job, purging expired finished jobs on the
// way (access-driven, so an idle store holds at most the jobs of its TTL
// window without needing a sweeper goroutine).
func (s *jobStore) get(id string) (job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := s.now().Add(-s.ttl)
	for jid, j := range s.jobs {
		if j.status != JobPending && j.doneAt.Before(cutoff) {
			delete(s.jobs, jid)
		}
	}
	j, ok := s.jobs[id]
	if !ok {
		return job{}, false
	}
	return *j, true
}

// pendingLocked refreshes the pending-jobs gauge; callers hold s.mu.
func (s *jobStore) pendingLocked() {
	n := 0
	for _, j := range s.jobs {
		if j.status == JobPending {
			n++
		}
	}
	jobsPending.Set(float64(n))
}
