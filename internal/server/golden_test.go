package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/defender-game/defender/internal/graph"
)

// -update regenerates the committed API-contract transcripts:
//
//	go test ./internal/server -run TestGoldenContract -update
var update = flag.Bool("update", false, "rewrite the contract transcripts under testdata/golden")

// solveMSRe masks the one volatile field of the wire contract so the
// transcripts are machine-independent.
var solveMSRe = regexp.MustCompile(`("solve_ms": )[0-9.eE+-]+`)

// transcript accumulates request/response pairs in the canonical golden
// rendering.
type transcript struct {
	b strings.Builder
}

// roundTrip runs one request through the handler and appends the masked
// exchange to the transcript.
func (tr *transcript) roundTrip(s *Server, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)

	fmt.Fprintf(&tr.b, "### %s %s\n", method, path)
	if body != "" {
		fmt.Fprintf(&tr.b, "%s\n", body)
	}
	fmt.Fprintf(&tr.b, "<<< %d %s\n", w.Code, http.StatusText(w.Code))
	for _, h := range []string{"Content-Type", "Location", "Retry-After"} {
		if v := w.Header().Get(h); v != "" {
			fmt.Fprintf(&tr.b, "<<< %s: %s\n", h, v)
		}
	}
	masked := solveMSRe.ReplaceAllString(w.Body.String(), `${1}"<volatile>"`)
	tr.b.WriteString(masked)
	if !strings.HasSuffix(masked, "\n") {
		tr.b.WriteString("\n")
	}
	tr.b.WriteString("\n")
	return w
}

// TestGoldenContract pins the full wire contract of the /v1 API: exact
// p/q game values, error bodies, headers, and the 202 → poll → result
// flow. Any change to the contract shows up as a transcript diff that
// must be reviewed (and regenerated with -update).
func TestGoldenContract(t *testing.T) {
	scenarios := []struct {
		id  string
		run func(t *testing.T, tr *transcript)
	}{
		{"solve_c6_k2", goldenSolveC6},
		{"solve_petersen_k5", goldenSolvePetersen},
		{"errors", goldenErrors},
		{"job_flow", goldenJobFlow},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.id, func(t *testing.T) {
			tr := &transcript{}
			sc.run(t, tr)
			got := tr.b.String()
			path := filepath.Join("testdata", "golden", sc.id+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden transcript (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("API contract drifted from %s\n--- got ---\n%s--- want ---\n%s",
					path, got, want)
			}
		})
	}
}

// TestGoldenGainClosedForm: every k-matching and perfect-matching answer
// in the committed transcripts reports the closed-form defender gain.
// For a k-matching that is equation (12), k·ν/|D(VP)|, and since each
// support vertex lies on exactly one support edge, |D(VP)| = |E(D(tp))|.
// A perfect-matching answer supports all n vertices on n/2 edges, so
// its gain is k·ν/|E(D(tp))| = 2kν/n: ν times Claim 4.3's hit
// probability. The server computes the gain as Σ_t P(t)·m(t) from the
// profile, so this compares two independent derivations.
func TestGoldenGainClosedForm(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, exchange := range strings.Split(string(raw), "\n### ") {
			// The body follows the last "<<< " status or header line.
			i := strings.LastIndex(exchange, "\n<<< ")
			if i < 0 {
				continue
			}
			_, body, _ := strings.Cut(exchange[i+1:], "\n")
			var resp struct{ Result *SolveResult }
			if json.Unmarshal([]byte(body), &resp) != nil || resp.Result == nil || resp.Result.MixedNE == nil {
				continue
			}
			res, ne := resp.Result, resp.Result.MixedNE
			if ne.Family != "k-matching" && ne.Family != "perfect-matching" {
				continue
			}
			support := len(ne.EdgeSupport)
			if ne.Family == "k-matching" {
				if len(ne.VPSupport) != support {
					t.Errorf("%s: k-matching answer for %s: |D(VP)| = %d, |E(D(tp))| = %d",
						path, res.Graph6, len(ne.VPSupport), support)
				}
				support = len(ne.VPSupport)
			}
			want := big.NewRat(int64(res.K*res.Attackers), int64(support))
			if got, ok := new(big.Rat).SetString(ne.DefenderGain); !ok || got.Cmp(want) != 0 {
				t.Errorf("%s: %s answer for %s, k=%d, ν=%d: defender_gain %q, want %s",
					path, ne.Family, res.Graph6, res.K, res.Attackers, ne.DefenderGain, want.RatString())
			}
			checked++
		}
	}
	if checked < 4 {
		t.Errorf("checked %d structured answers, want the 4 the transcripts hold", checked)
	}
}

func goldenServer(t *testing.T, tweaks ...func(*Config)) *Server {
	t.Helper()
	return newTestServer(t, tweaks...)
}

// goldenSolveC6: the canonical sync solve — C6 at k=2, ν=4, where no
// pure NE exists (ρ=3) and the k-matching construction gives value 2/3 —
// followed by the identical request answered from the cache.
func goldenSolveC6(t *testing.T, tr *transcript) {
	s := goldenServer(t)
	body := `{"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[0,5]],"k":2,"attackers":4}`
	if w := tr.roundTrip(s, http.MethodPost, "/v1/solve", body); w.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", w.Code, w.Body.String())
	}
	if w := tr.roundTrip(s, http.MethodPost, "/v1/solve", body); w.Code != http.StatusOK {
		t.Fatalf("cached solve: %d %s", w.Code, w.Body.String())
	}
}

// goldenSolvePetersen: a graph6-addressed solve of the Petersen graph at
// k=5, exercising the perfect-matching family and the LP value oracle.
func goldenSolvePetersen(t *testing.T, tr *transcript) {
	s := goldenServer(t)
	if w := tr.roundTrip(s, http.MethodPost, "/v1/solve", `{"graph6":"IsP@PGXD_","k":5}`); w.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", w.Code, w.Body.String())
	}
}

// goldenErrors pins the structured error bodies of the non-2xx contract.
func goldenErrors(t *testing.T, tr *transcript) {
	s := goldenServer(t, func(c *Config) { c.MaxVertices = 32 })
	tr.roundTrip(s, http.MethodPost, "/v1/solve", `{"graph6":"~~~~","k":1}`)
	tr.roundTrip(s, http.MethodPost, "/v1/solve", `{"n":3,"edges":[[0,1]],"k":1}`)
	tr.roundTrip(s, http.MethodPost, "/v1/solve", `{"n":2,"edges":[[0,1]],"k":9}`)
	tr.roundTrip(s, http.MethodPost, "/v1/solve", `{"n":40,"edges":[[0,1]],"k":1}`)
	tr.roundTrip(s, http.MethodGet, "/v1/solve", "")
	tr.roundTrip(s, http.MethodGet, "/v1/jobs/j99999999", "")
	tr.roundTrip(s, http.MethodGet, "/no/such/route", "")
}

// goldenJobFlow scripts the asynchronous contract: a gated solve converts
// to a 202 with a deterministic job id, polls as pending, and — once the
// gate opens — polls as done with the full result.
func goldenJobFlow(t *testing.T, tr *transcript) {
	release := make(chan struct{})
	s := goldenServer(t, func(c *Config) { c.SyncWait = 10 * time.Millisecond })
	inner := s.solveFn
	s.solveFn = func(ctx context.Context, g *graph.Graph, g6 string, k, attackers int) (*SolveResult, error) {
		<-release
		return inner(ctx, g, g6, k, attackers)
	}

	w := tr.roundTrip(s, http.MethodPost, "/v1/solve", `{"n":4,"edges":[[0,1],[1,2],[2,3],[0,3]],"k":1}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("want 202, got %d: %s", w.Code, w.Body.String())
	}
	var js JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &js); err != nil {
		t.Fatal(err)
	}
	if w := tr.roundTrip(s, http.MethodGet, js.Poll, ""); w.Code != http.StatusOK {
		t.Fatalf("pending poll: %d", w.Code)
	}

	close(release)
	// Wait for completion off-transcript, then record the final poll.
	deadline := time.After(10 * time.Second)
	for {
		req := httptest.NewRequest(http.MethodGet, js.Poll, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == JobDone {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("job never completed: %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}
	tr.roundTrip(s, http.MethodGet, js.Poll, "")
}
