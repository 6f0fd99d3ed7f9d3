package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sendStats is a one-counter Stats struct.
type sendStats struct {
	Sends uint64 `obs:"wcl_sends_total"`
}

func TestExportAndWriteJSON(t *testing.T) {
	reg := NewRegistry()
	sc := reg.Scope("node", "3")
	Register(sc, &sendStats{Sends: 2})
	sc.Histogram("wcl_peel_ms", 1, 10).Observe(5)

	points := reg.Export()
	if len(points) != 2 {
		t.Fatalf("exported %d points, want 2", len(points))
	}
	byName := map[string]MetricPoint{}
	for _, p := range points {
		byName[p.Name] = p
	}
	if c := byName["wcl_sends_total"]; c.Value == nil || *c.Value != 2 || c.Labels["node"] != "3" {
		t.Fatalf("counter point wrong: %+v", c)
	}
	if h := byName["wcl_peel_ms"]; h.Count != 1 || h.Sum != 5 || len(h.Buckets) != 3 {
		t.Fatalf("histogram point wrong: %+v", h)
	}

	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := reg.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string        `json:"schema"`
		Metrics []MetricPoint `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "whisper-metrics/v1" || len(doc.Metrics) != 2 {
		t.Fatalf("JSON dump wrong: schema=%q n=%d", doc.Schema, len(doc.Metrics))
	}

	if (*Registry)(nil).Export() != nil {
		t.Fatal("nil registry must export nil")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	Register(reg.Scope("node", "1"), &struct {
		N uint64 `obs:"nylon_shuffles_initiated_total"`
	}{7})
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, `nylon_shuffles_initiated_total{node="1"} 7`) {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}

	code, body = get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars: %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["whisper_metrics"]; !ok {
		t.Fatal("/debug/vars missing whisper_metrics")
	}

	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
}
