package anna

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anna/internal/dataset"
	"anna/internal/front"
	"anna/internal/vecmath"
)

func TestRenderTimelinePublicAPI(t *testing.T) {
	idx, _, queries := buildTestIndex(t, L2, 16)
	cfg := DefaultAcceleratorConfig()
	cfg.TopK = 100
	cfg.Trace = true
	acc, err := NewAccelerator(idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := acc.Simulate(queries, SimParams{W: 4, K: 5, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTimeline(rep.Timeline, 60)
	for _, unit := range []string{"cpm", "dram", "scm00"} {
		if !strings.Contains(out, unit) {
			t.Errorf("gantt missing %s:\n%s", unit, out)
		}
	}
	if RenderTimeline(nil, 10) == "" {
		t.Error("empty timeline render")
	}
	// Energy by module present and sums to the chip total.
	var sum float64
	for _, j := range rep.EnergyByModule {
		sum += j
	}
	if diff := sum - rep.ChipEnergyJ; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("module energies sum %v != chip %v", sum, rep.ChipEnergyJ)
	}
	// Per-phase cycles exposed.
	if rep.PhaseCycles["scan"] <= 0 || rep.PhaseCycles["filter"] <= 0 {
		t.Errorf("phase cycles: %v", rep.PhaseCycles)
	}
}

func TestMetricAccessorsIP(t *testing.T) {
	idx, _, _ := buildTestIndex(t, InnerProduct, 16)
	if idx.Metric() != InnerProduct {
		t.Error("IP metric lost")
	}
	if got := InnerProduct.internal(); got.String() != "ip" {
		t.Errorf("internal metric %v", got)
	}
}

func TestExactSearchErrors(t *testing.T) {
	good := clusteredVectors(50, 4, 2, 1)
	if _, err := ExactSearch(nil, L2, []float32{1}, 1); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := ExactSearch(good, L2, []float32{1, 2}, 1); err == nil {
		t.Error("dim mismatch accepted")
	}
	res, err := ExactSearch(good, InnerProduct, good[0], 3)
	if err != nil || len(res) != 3 {
		t.Errorf("IP exact: %v %d", err, len(res))
	}
}

func TestRunExperimentAcrossIDsQuick(t *testing.T) {
	// Exercise the cheap experiment routes end-to-end through one shared
	// runner (timeline/ablation/traffic run simulations on cached
	// indexes; fig8/fig9/fig10 are covered by the harness tests).
	var buf bytes.Buffer
	r := NewExperimentRunner(ScaleQuick, &buf)
	for _, id := range []string{"table1", "related", "exact", "timeline", "traffic"} {
		if err := r.Run(id, []string{"SIFT1M"}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"Table I", "related-work", "timeline", "traffic"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if err := r.Run("graph", nil); err != nil {
		t.Fatalf("graph default workload: %v", err)
	}
}

func TestScaleSelector(t *testing.T) {
	var buf bytes.Buffer
	// ScaleFull resolves without running anything heavy (table1 is cheap).
	if err := RunExperiment("table1", ScaleFull, nil, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "17.51") {
		t.Error("full-scale table1 output")
	}
}

func TestStreamBuildFromFile(t *testing.T) {
	base := clusteredVectors(600, 8, 8, 71)
	m := vecmath.NewMatrix(len(base), 8)
	for i, v := range base {
		m.SetRow(i, v)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "base.fvecs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteFvecs(f, m); err != nil {
		t.Fatal(err)
	}
	f.Close()
	idx, err := BuildIndexFromFvecsFile(path, L2, StreamBuildOptions{
		BuildOptions: BuildOptions{NClusters: 8, M: 4, Ks: 16, TrainIters: 4},
		SampleSize:   300, ChunkSize: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 600 {
		t.Fatalf("len %d", idx.Len())
	}
}

func TestServerAddErrors(t *testing.T) {
	idx, _, _ := buildTestIndex(t, L2, 16)
	ts := httptest.NewServer(NewServer(idx).Handler())
	defer ts.Close()

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/add", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed add: %d", resp.StatusCode)
	}
	// Wrong dimension.
	resp = postJSON(t, ts.URL+"/add", front.AddRequest{Vectors: [][]float32{{1, 2}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad-dim add: %d", resp.StatusCode)
	}
	// Wrong method.
	get, err := http.Get(ts.URL + "/add")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /add: %d", get.StatusCode)
	}
	// /stats with wrong method.
	post := postJSON(t, ts.URL+"/stats", map[string]any{})
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats: %d", post.StatusCode)
	}
}
