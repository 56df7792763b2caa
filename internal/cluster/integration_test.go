package cluster

// Multi-process cluster harness: three real annaserve-equivalent shard
// processes (this test binary re-exec'd, see TestMain), a scatter-gather
// Router over them, and a SIGKILL in the middle of a live add/search
// load. The assertions are the PR's acceptance criteria:
//
//   - every search answers 200 while a shard is dead (partial coverage
//     declared via X-Anna-Partial and counted in the partials metric,
//     never a 5xx while any shard survives);
//   - no WAL-acked /add is lost: after the killed shard restarts and
//     recovers from its WAL, its /admin/state bytes are bit-exact
//     against a parent-maintained mirror of the acked batches
//     (tolerating the at-most-one in-flight batch at kill time);
//   - the restarted shard rejoins and full coverage returns;
//   - router results after recovery match a single-process reference
//     merge over the mirrors.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"anna"
	"anna/internal/front"
	"anna/internal/qos"
	"anna/internal/topk"
)

const (
	envShardDir = "ANNA_CLUSTER_SHARD_DIR"
	envAddr     = "ANNA_CLUSTER_ADDR"
	envPortFile = "ANNA_CLUSTER_PORT_FILE"
)

// TestMain doubles as the shard-process entry point: when the re-exec
// env vars are set, the test binary becomes an annaserve shard instead
// of running the test list.
func TestMain(m *testing.M) {
	if dir := os.Getenv(envShardDir); dir != "" {
		shardMain(dir, os.Getenv(envAddr), os.Getenv(envPortFile))
		return // unreachable: shardMain serves forever or exits
	}
	os.Exit(m.Run())
}

// shardMain is one shard process: recover the store in dir, serve the
// full annaserve HTTP surface, and publish the bound address through
// portFile (written atomically so the parent never reads a torn path).
func shardMain(dir, addr, portFile string) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "shard %s: %v\n", dir, err)
		os.Exit(1)
	}
	st, err := anna.OpenStore(dir, anna.StoreOptions{Sync: anna.SyncAlways})
	if err != nil {
		fail(err)
	}
	srv := anna.NewServer(st.Index())
	srv.Store = st
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	tmp := portFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		fail(err)
	}
	if err := os.Rename(tmp, portFile); err != nil {
		fail(err)
	}
	fail(http.Serve(ln, srv.Handler()))
}

// ivecs generates deterministic pseudo-random vectors (math/rand v1
// for a stable sequence given the seed).
func ivecs(seed int64, n, d int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, d)
		for j := range v {
			v[j] = rng.Float32()
		}
		out[i] = v
	}
	return out
}

// shardProc is one managed shard process.
type shardProc struct {
	dir      string
	portFile string
	addr     string
	cmd      *exec.Cmd
}

// start launches (or relaunches) the shard process. A fixed addr pins
// the listen address across restarts so the router's base URL survives.
func (sp *shardProc) start(t *testing.T, addr string) {
	t.Helper()
	os.Remove(sp.portFile)
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		envShardDir+"="+sp.dir,
		envAddr+"="+addr,
		envPortFile+"="+sp.portFile,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting shard in %s: %v", sp.dir, err)
	}
	sp.cmd = cmd
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		if b, err := os.ReadFile(sp.portFile); err == nil && len(b) > 0 {
			sp.addr = string(b)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard in %s never published its port", sp.dir)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for {
		resp, err := http.Get("http://" + sp.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard at %s never became healthy", sp.addr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// kill SIGKILLs the shard process — no drain, no shutdown snapshot,
// exactly like a machine losing power.
func (sp *shardProc) kill(t *testing.T) {
	t.Helper()
	if err := sp.cmd.Process.Kill(); err != nil {
		t.Fatalf("killing shard: %v", err)
	}
	sp.cmd.Wait()
}

// fetchState pulls a shard's /admin/state directly (bypassing the
// router) and returns the exact snapshot bytes plus the decoded index.
func fetchState(t *testing.T, addr string) ([]byte, *anna.Index) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/admin/state")
	if err != nil {
		t.Fatalf("GET /admin/state: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /admin/state: status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading /admin/state body: %v", err)
	}
	idx, err := anna.LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decoding /admin/state body: %v", err)
	}
	return buf.Bytes(), idx
}

func saveIndexBytes(t *testing.T, idx *anna.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestClusterSurvivesShardKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness")
	}
	const (
		nShards   = 3
		dim       = 8
		batchSize = 3
	)

	// Seed: one trained index, cloned byte-for-byte into every shard's
	// store and into the parent's per-shard mirrors.
	seed, err := anna.BuildIndex(ivecs(1, 240, dim), anna.L2, anna.BuildOptions{
		NClusters: 8, M: 4, Ks: 16, TrainIters: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	seedBytes := saveIndexBytes(t, seed)
	loadSeed := func() *anna.Index {
		idx, err := anna.LoadIndex(bytes.NewReader(seedBytes))
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}

	root := t.TempDir()
	procs := make([]*shardProc, nShards)
	mirrors := make([]*anna.Index, nShards)
	urls := make([]string, nShards)
	for i := range procs {
		dir := filepath.Join(root, "shard"+strconv.Itoa(i))
		st, err := anna.CreateStore(dir, loadSeed(), anna.StoreOptions{Sync: anna.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		procs[i] = &shardProc{dir: dir, portFile: filepath.Join(root, "port"+strconv.Itoa(i))}
		procs[i].start(t, "")
		mirrors[i] = loadSeed()
		urls[i] = "http://" + procs[i].addr
	}

	rt, err := New(Config{
		Shards: urls,
		Shard: ShardOptions{
			Timeout:          2 * time.Second,
			AddTimeout:       5 * time.Second,
			Retries:          1,
			Backoff:          qos.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond, Factor: 2, Jitter: 0.5},
			RetryBudgetRatio: 5,
			RetryBudgetBurst: 100,
			BreakerFailures:  2,
			BreakerCooldown:  300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()

	// Concurrent search load for the whole run: the degradation
	// contract says these never see a 5xx while any shard survives.
	var (
		searches, searchBad, searchPartial atomic.Uint64
		stopSearch                         = make(chan struct{})
		searchDone                         = make(chan struct{})
	)
	queries := ivecs(7, 4, dim)
	go func() {
		defer close(searchDone)
		for {
			select {
			case <-stopSearch:
				return
			default:
			}
			rec, _ := postSearch(t, h, front.SearchRequest{Queries: queries[:1], W: 8, K: 5})
			searches.Add(1)
			if rec.Code != http.StatusOK {
				searchBad.Add(1)
			}
			if rec.Header().Get(HeaderPartial) != "" {
				searchPartial.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// postAdd routes one deterministic batch through the router and
	// applies acked batches to the owning shard's mirror. Failed adds on
	// a named shard are ambiguous — the shard may have WAL-logged the
	// batch before dying — so they are kept for the recovery check.
	type pending struct{ vectors [][]float32 }
	ambiguous := make(map[int][]pending)
	acked := 0
	postAdd := func(seq int) {
		t.Helper()
		vectors := ivecs(1000+int64(seq), batchSize, dim)
		body, _ := json.Marshal(front.AddRequest{Vectors: vectors})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/add", bytes.NewReader(body)))
		shardHdr := rec.Header().Get(HeaderShard)
		if rec.Code != http.StatusOK {
			if shardHdr != "" {
				s, err := strconv.Atoi(shardHdr)
				if err != nil {
					t.Fatalf("add %d: bad %s header %q", seq, HeaderShard, shardHdr)
				}
				ambiguous[s] = append(ambiguous[s], pending{vectors: vectors})
			}
			return
		}
		var ar front.AddResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
			t.Fatalf("add %d: decoding ack: %v", seq, err)
		}
		s, err := strconv.Atoi(shardHdr)
		if err != nil {
			t.Fatalf("add %d: acked without a shard header (%q)", seq, shardHdr)
		}
		// An ack is a durability promise: mirror it, and check the
		// stripe arithmetic round-trips to the shard-local ID.
		localFirst := ar.FirstID - int64(s)*rt.stride
		gotFirst, err := mirrors[s].Add(vectors)
		if err != nil {
			t.Fatalf("add %d: mirror apply: %v", seq, err)
		}
		if gotFirst != localFirst {
			t.Fatalf("add %d: shard %d acked local id %d, mirror assigned %d",
				seq, s, localFirst, gotFirst)
		}
		acked++
	}

	// Phase A: healthy cluster absorbs load.
	seq := 0
	for ; seq < 24; seq++ {
		postAdd(seq)
	}
	if acked != 24 {
		t.Fatalf("healthy phase: %d/24 adds acked", acked)
	}

	// Phase B: shard 1 dies by SIGKILL mid-load and the cluster keeps
	// serving. Adds routed at the dead shard fail over (breaker) or
	// surface as ambiguous 502s; searches degrade to declared partials.
	procs[1].kill(t)
	for ; seq < 60; seq++ {
		postAdd(seq)
	}
	if rt.shards[1].Breaker().State() == "closed" {
		t.Fatal("breaker still closed after sustained shard death")
	}
	if got := acked; got < 40 {
		t.Fatalf("only %d adds acked with one dead shard — failover not working", got)
	}

	// Give the searcher time to observe the outage, then check the
	// degradation contract held so far.
	time.Sleep(100 * time.Millisecond)
	if n := searchBad.Load(); n != 0 {
		t.Fatalf("%d searches failed during the outage — degradation must not 5xx", n)
	}
	if searchPartial.Load() == 0 {
		t.Fatal("no partial search responses while a shard was dead")
	}
	if rt.partials.Value() == 0 {
		t.Fatal("anna_partial_results_total not incremented")
	}
	if rt.shards[1].Stats().FastFails.Load() == 0 {
		t.Fatal("no breaker fast-fails recorded for the dead shard")
	}

	// Phase C: the shard restarts on its old address and recovers from
	// its own WAL; the breaker's half-open probe readmits it and full
	// coverage returns.
	procs[1].start(t, procs[1].addr)
	recovered := false
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		rec, _ := postSearch(t, h, front.SearchRequest{Queries: queries[:1], W: 8, K: 5})
		if rec.Code == http.StatusOK && rec.Header().Get(HeaderPartial) == "" {
			recovered = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("full coverage never returned after the shard restarted")
	}
	for ; seq < 72; seq++ {
		postAdd(seq)
	}

	close(stopSearch)
	<-searchDone
	if n := searchBad.Load(); n != 0 {
		t.Fatalf("%d of %d searches failed across the run", n, searches.Load())
	}

	// Verification 1 — no acked write lost, bit-exact recovery: each
	// shard's /admin/state must equal the mirror of its acked batches.
	// The killed shard may hold up to len(ambiguous[1]) extra batches
	// (WAL-logged before the ack could be sent); they were issued
	// sequentially, so any applied suffix is a prefix of the ambiguous
	// list, replayed onto the mirror until the sizes agree.
	for i := range procs {
		stateBytes, got := fetchState(t, procs[i].addr)
		amb := ambiguous[i]
		for len(amb) > 0 && got.Len() > mirrors[i].Len() {
			if _, err := mirrors[i].Add(amb[0].vectors); err != nil {
				t.Fatalf("shard %d: applying ambiguous batch: %v", i, err)
			}
			amb = amb[1:]
		}
		if got.Len() < mirrors[i].Len() {
			t.Fatalf("shard %d lost acked writes: has %d vectors, acked mirror has %d",
				i, got.Len(), mirrors[i].Len())
		}
		if want := saveIndexBytes(t, mirrors[i]); !bytes.Equal(stateBytes, want) {
			t.Fatalf("shard %d state diverged from acked mirror (%d vs %d bytes, Len %d vs %d)",
				i, len(stateBytes), len(want), got.Len(), mirrors[i].Len())
		}
	}

	// Verification 2 — the cluster answers like one big index: router
	// results must equal a single-process reference merge over the
	// mirrors (same stripe arithmetic, same topk.Merge).
	rec, resp := postSearch(t, h, front.SearchRequest{Queries: queries, W: 8, K: 10})
	if rec.Code != http.StatusOK || rec.Header().Get(HeaderPartial) != "" {
		t.Fatalf("reference search: status=%d partial=%q", rec.Code, rec.Header().Get(HeaderPartial))
	}
	for q, query := range queries {
		var lists [][]topk.Result
		for i, m := range mirrors {
			rs := m.Search(query, 8, 10)
			list := make([]topk.Result, len(rs))
			for j, r := range rs {
				list[j] = topk.Result{ID: int64(i)*rt.stride + r.ID, Score: r.Score}
			}
			lists = append(lists, list)
		}
		want := topk.Merge(10, lists...)
		got := resp.Results[q]
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, reference has %d", q, len(got), len(want))
		}
		for j := range want {
			if got[j].ID != want[j].ID || got[j].Score != want[j].Score {
				t.Fatalf("query %d result %d: got (%d, %v), reference (%d, %v)",
					q, j, got[j].ID, got[j].Score, want[j].ID, want[j].Score)
			}
		}
	}
}
