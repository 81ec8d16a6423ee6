package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"cameo/internal/faultinject"
	"cameo/internal/system"
)

// TestRawEntryRoundTrip covers the cache-peer path: LoadRaw serves the
// verified envelope bytes, DecodeEntry unwraps them, and StoreRaw adopts
// them into another cache where a plain Load hits.
func TestRawEntryRoundTrip(t *testing.T) {
	src := openTestCache(t, t.TempDir())
	dst := openTestCache(t, t.TempDir())
	job := testJobs(1)[0]
	want := system.Result{Org: "CAMEO", Benchmark: "sphinx3", Cycles: 99, Demands: 3}

	if _, ok := src.LoadRaw(job.Hash()); ok {
		t.Fatal("LoadRaw hit on an empty cache")
	}
	src.Store(job.Hash(), want)
	raw, ok := src.LoadRaw(job.Hash())
	if !ok {
		t.Fatal("LoadRaw missed a stored entry")
	}
	got, err := DecodeEntry(raw)
	if err != nil || got.Cycles != want.Cycles || got.Org != want.Org {
		t.Fatalf("DecodeEntry = %+v, %v", got, err)
	}
	if err := dst.StoreRaw(job.Hash(), raw); err != nil {
		t.Fatal(err)
	}
	if res, ok := dst.Load(job.Hash()); !ok || res.Demands != want.Demands {
		t.Fatalf("adopted entry: ok=%v res=%+v", ok, res)
	}
	if n := dst.StoreErrorCount(); n != 0 {
		t.Fatalf("StoreErrorCount = %d after a clean StoreRaw", n)
	}
}

// TestLoadRawQuarantinesCorruption: a peer never ships a corrupt entry;
// LoadRaw quarantines it exactly as Load does.
func TestLoadRawQuarantinesCorruption(t *testing.T) {
	c := openTestCache(t, t.TempDir())
	job := testJobs(1)[0]
	if err := writeFile(c.path(job.Hash()), "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadRaw(job.Hash()); ok {
		t.Fatal("LoadRaw served a corrupt entry")
	}
	if n := c.CorruptCount(); n != 1 {
		t.Fatalf("CorruptCount = %d, want 1", n)
	}
	if q := c.QuarantinedEntries(); len(q) != 1 {
		t.Fatalf("quarantined %v, want one entry", q)
	}
}

// TestStoreRawRefusesAndReportsFailures: unlike Store, StoreRaw returns its
// failures, for unverified envelopes and for write errors alike.
func TestStoreRawRefusesAndReportsFailures(t *testing.T) {
	c := openTestCache(t, t.TempDir())
	job := testJobs(1)[0]
	if err := c.StoreRaw(job.Hash(), []byte(`{"schema":"x"}`)); err == nil {
		t.Fatal("StoreRaw accepted an unverified envelope")
	}
	if _, ok := c.Load(job.Hash()); ok {
		t.Fatal("refused envelope became readable")
	}

	raw, err := EncodeEntry(system.Result{Cycles: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaults(faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteCacheStore, Kind: faultinject.WriteFail, Prob: 1, Limit: 1,
	}))
	if err := c.StoreRaw(job.Hash(), raw); err == nil {
		t.Fatal("StoreRaw swallowed an injected write failure")
	}
	if n := c.StoreErrorCount(); n != 1 {
		t.Fatalf("StoreErrorCount = %d, want 1", n)
	}
	if tmp := c.TempFiles(); len(tmp) != 0 {
		t.Fatalf("failed StoreRaw leaked temp files: %v", tmp)
	}
	if err := c.StoreRaw(job.Hash(), raw); err != nil {
		t.Fatalf("StoreRaw after the fault: %v", err)
	}
}

// TestDecodeEntryRejects walks every verification step DecodeEntry applies
// to bytes from disk or the network.
func TestDecodeEntryRejects(t *testing.T) {
	envelope := func(schema string, payload []byte, sum string) []byte {
		data, err := json.Marshal(cacheEntry{Schema: schema, SHA256: sum, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	sumOf := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:])
	}
	good := []byte(`{"Org":"CAMEO"}`)
	badPayload := []byte(`{"Cycles":"many"}`)
	cases := map[string]struct {
		data []byte
		want string
	}{
		"not json":  {[]byte("{"), "not valid JSON"},
		"schema":    {envelope("cameo-cache-entry-v0", good, sumOf(good)), "schema"},
		"checksum":  {envelope(entrySchema, good, sumOf(badPayload)), "checksum"},
		"payload":   {envelope(entrySchema, badPayload, sumOf(badPayload)), "does not decode"},
		"truncated": {envelope(entrySchema, good, sumOf(good))[:20], "not valid JSON"},
	}
	for name, tc := range cases {
		if _, err := DecodeEntry(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", name, err, tc.want)
		}
	}
	if res, err := DecodeEntry(envelope(entrySchema, good, sumOf(good))); err != nil || res.Org != "CAMEO" {
		t.Fatalf("valid envelope: %+v, %v", res, err)
	}
}

// TestCheckpointRunIDAndDone: the checkpoint reports the sweep identity it
// was opened with and which cells it has recorded; a nil checkpoint
// records nothing.
func TestCheckpointRunIDAndDone(t *testing.T) {
	jobs := testJobs(2)
	cp, err := OpenCheckpoint(t.TempDir(), jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	if cp.RunID() != RunID(jobs) {
		t.Fatalf("RunID = %q, want %q", cp.RunID(), RunID(jobs))
	}
	if cp.Done(jobs[0].Hash()) {
		t.Fatal("fresh checkpoint reports a cell done")
	}
	cp.MarkDone(jobs[0].Hash())
	if !cp.Done(jobs[0].Hash()) || cp.Done(jobs[1].Hash()) {
		t.Fatal("Done does not track MarkDone")
	}
	if _, err := os.Stat(cp.Path()); err != nil {
		t.Fatalf("manifest not flushed: %v", err)
	}
	var none *Checkpoint
	if none.Done(jobs[0].Hash()) {
		t.Fatal("nil checkpoint reports a cell done")
	}
}

// TestMapAttemptErr pins how an attempt's CancelledError is attributed: to
// the sweep when its context ended, to the watchdog when only the attempt
// deadline did; every other error passes through untouched.
func TestMapAttemptErr(t *testing.T) {
	live := context.Background()
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	ce := &CancelledError{Name: "cell", Cause: context.Canceled}
	other := errors.New("boom")

	r := New(Options{Jobs: 1})
	if err := r.mapAttemptErr(live, live, "cell", nil); err != nil {
		t.Fatalf("nil error mapped to %v", err)
	}
	if err := r.mapAttemptErr(ended, ended, "cell", other); err != other {
		t.Fatalf("plain error mapped to %v", err)
	}
	if err := r.mapAttemptErr(live, live, "cell", ce); err != ce {
		t.Fatalf("unexplained cancellation mapped to %v", err)
	}

	err := r.mapAttemptErr(ended, ended, "cell", ce)
	var got *CancelledError
	if !errors.As(err, &got) || !errors.Is(err, context.Canceled) || r.cancelled.Value() != 1 {
		t.Fatalf("sweep cancellation: err = %v, cancelled = %d", err, r.cancelled.Value())
	}

	err = r.mapAttemptErr(live, ended, "cell", ce)
	var te *TimeoutError
	if !errors.As(err, &te) || te.Name != "cell" || r.timedOut.Value() != 1 {
		t.Fatalf("attempt deadline: err = %v, timeouts = %d", err, r.timedOut.Value())
	}
}
