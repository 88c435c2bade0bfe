package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/defender-game/defender/internal/server"
)

// Client-side limits: a request still unanswered after requestTimeout is
// a failure; a 202 job is polled every pollInterval.
const (
	requestTimeout = 30 * time.Second
	pollInterval   = 5 * time.Millisecond
)

// client is one load-generator connection to the server under test.
type client struct {
	hc   *http.Client
	base string
	keep bool // keep each correct answer's raw result in its outcome
}

// newClients opens n clients, each limited to a single connection, so
// the load never uses more than n connections.
func newClients(base string, n int) []*client {
	out := make([]*client, n)
	for i := range out {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		out[i] = &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base}
	}
	return out
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is the fate of one request. Times are offsets from the start of
// its phase; due is when the schedule wanted it sent.
type outcome struct {
	due, sent, done time.Duration
	woke            bool   // the client was idle and slept until due
	accepted        bool   // answered 202 and polled to completion
	family          string // equilibrium family of a correct answer
	err             error  // nil for a correct 200 answer
	wrong           bool   // err is a wrong answer, not a refusal or transport failure
	raw             []byte // the answer's result object, when the client keeps them
}

// latency is the request's time from its due time to its answer. When
// the client was idle at the due time and only its own wake-up ran late,
// the time runs from the send instead: that lateness is the in-process
// generator's timer, not the server (it is reported as
// loadgen.lag_p99_ms). A request that waited for a busy client is always
// charged from its due time.
func (o *outcome) latency() time.Duration {
	if o.woke {
		return o.done - o.sent
	}
	return o.done - o.due
}

// errWrong marks a response that arrived but failed a correctness check.
var errWrong = errors.New("wrong answer")

// send performs one solve request and checks the answer into o.
func (c *client) send(req *request, o *outcome) {
	raw, accepted, err := c.fetch(req)
	o.accepted = accepted
	if err == nil {
		o.family, err = checkAnswer(raw, req)
		if err != nil {
			err = fmt.Errorf("%w: %v", errWrong, err)
		}
	}
	if c.keep && err == nil {
		o.raw = raw
	}
	o.err, o.wrong = err, errors.Is(err, errWrong)
}

// refused reports whether a status is the server declining work it may
// decline under load: a full queue (429), not ready (503) or a solve past
// its deadline (504). Such a request failed but was not answered wrongly.
// Every other status but 200 and 202 is a wrong answer: each request the
// benchmark sends is valid and solvable.
func refused(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// fetch performs one solve request, polling a 202 job to completion, and
// returns the raw result object of the answer. A transport failure, a
// refusal, a job still pending at the client deadline and a job that ran
// past its deadline fail; any other failure is marked errWrong.
func (c *client) fetch(req *request) (raw []byte, accepted bool, err error) {
	status, body, err := c.do(http.MethodPost, "/v1/solve", req.body)
	if err == nil && status == http.StatusAccepted {
		accepted = true
		status, body, err = c.poll(body)
	}
	if err != nil {
		return nil, accepted, err
	}
	if status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, body)
		if !refused(status) {
			err = fmt.Errorf("%w: %v", errWrong, err)
		}
		return nil, accepted, err
	}
	if !accepted {
		raw, err = solveResult(body)
		if err != nil {
			err = fmt.Errorf("%w: %v", errWrong, err)
		}
		return raw, false, err
	}
	var js struct {
		Status string            `json:"status"`
		Result json.RawMessage   `json:"result"`
		Error  *server.ErrorInfo `json:"error"`
	}
	if err := json.Unmarshal(body, &js); err != nil {
		return nil, true, fmt.Errorf("%w: undecodable job body: %.200s", errWrong, body)
	}
	switch {
	case js.Status == server.JobDone:
		return js.Result, true, nil
	case js.Status == server.JobFailed && js.Error != nil && js.Error.Code == server.CodeTimeout:
		return nil, true, fmt.Errorf("job ran past its deadline: %.200s", body)
	}
	return nil, true, fmt.Errorf("%w: job ended %q: %.200s", errWrong, js.Status, body)
}

// poll follows a 202 job handle until the job leaves the pending state.
func (c *client) poll(accepted []byte) (int, []byte, error) {
	var js server.JobStatus
	if err := json.Unmarshal(accepted, &js); err != nil || js.Poll == "" {
		return 0, nil, fmt.Errorf("%w: bad 202 body: %.200s", errWrong, accepted)
	}
	deadline := time.Now().Add(requestTimeout)
	for time.Now().Before(deadline) {
		time.Sleep(pollInterval)
		status, body, err := c.do(http.MethodGet, js.Poll, nil)
		if err != nil || status != http.StatusOK {
			return status, body, err
		}
		if !bytes.Contains(body, []byte(`"status": "pending"`)) {
			return status, body, nil
		}
	}
	return 0, nil, errors.New("job still pending at the client deadline")
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// openLoop sends reqs at a fixed rate (requests per second), request i due
// at i/rate after the start, whether or not earlier requests have been
// answered. Each client takes the next request, sleeps until it is due
// and sends it; a request due while every client is busy goes out when
// one frees up, and that wait counts in its latency because latency runs
// from the due time (see outcome.latency).
func openLoop(clients []*client, reqs []*request, rate float64) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				o := &out[i]
				o.due = time.Duration(float64(i) / rate * float64(time.Second))
				if wait := o.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
					o.woke = true
				}
				o.sent = time.Since(start)
				c.send(reqs[i], o)
				o.done = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// closedLoop keeps every client busy: each sends its next request as soon
// as its previous one is answered, until d has passed or reqs run out. It
// returns the outcomes in the order the requests were taken and the time
// until the last answer.
func closedLoop(clients []*client, reqs []*request, d time.Duration) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				now := time.Since(start)
				mu.Lock()
				i := next
				if now >= d || i == len(reqs) {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				o := &out[i]
				o.due, o.sent = now, now
				c.send(reqs[i], o)
				o.done = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return out[:next], time.Since(start)
}
