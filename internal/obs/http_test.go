package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestDebugMuxMetricsEndpoint(t *testing.T) {
	r := enabledRegistry()
	r.Counter("demo.hits").Add(7)
	srv := httptest.NewServer(newDebugMux(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/metrics content-type = %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics body is not a Snapshot: %v", err)
	}
	if snap.Counters["demo.hits"] != 7 {
		t.Errorf("demo.hits = %d, want 7", snap.Counters["demo.hits"])
	}
}

func TestDebugMuxPprofAndExpvar(t *testing.T) {
	r := enabledRegistry()
	srv := httptest.NewServer(newDebugMux(r))
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/vars"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d, body %.80s", path, resp.StatusCode, body)
		}
	}
}

func TestStartDebugServer(t *testing.T) {
	r := enabledRegistry()
	r.Counter("served.total").Inc()
	addr, err := StartDebugServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["served.total"] != 1 {
		t.Errorf("served.total = %d, want 1", snap.Counters["served.total"])
	}
	// /debug/vars must include the published registry.
	resp2, err := http.Get("http://" + addr.String() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["defender.metrics"]; !ok {
		t.Error("/debug/vars missing the published defender.metrics entry")
	}
}
