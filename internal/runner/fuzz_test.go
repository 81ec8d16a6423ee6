package runner

import (
	"reflect"
	"testing"

	"cameo/internal/system"
)

// FuzzDecodeEntry feeds arbitrary bytes to DecodeEntry, the verifier for
// every cache entry that arrives from outside the process (PUT
// /cache/<hash> bodies, peer fetches, files on disk). It must never panic,
// and any input it accepts must survive a re-encode: EncodeEntry then
// DecodeEntry gives back an equal Result.
func FuzzDecodeEntry(f *testing.F) {
	// A real entry: a small CAMEO run fills every nested section (DRAM and
	// CAMEO stats, the metrics snapshot with histogram buckets).
	job := NewJob(testJobs(1)[0].Specs[0], system.Config{
		Org: system.CAMEO, ScaleDiv: 4096, Cores: 2, InstrPerCore: 2000, Seed: 1,
	})
	good, err := EncodeEntry(system.Run(job.Specs[0], job.Cfg))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, n := range []int{0, 1, len(good) / 2, len(good) - 1} {
		f.Add(good[:n])
	}
	for _, i := range []int{0, 12, len(good) / 3, len(good) / 2, len(good) - 2} {
		flipped := append([]byte(nil), good...)
		flipped[i] ^= 0x20
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeEntry(data)
		if err != nil {
			return
		}
		again, err := EncodeEntry(res)
		if err != nil {
			t.Fatalf("accepted entry does not re-encode: %v", err)
		}
		back, err := DecodeEntry(again)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v", err)
		}
		if !reflect.DeepEqual(res, back) {
			t.Fatalf("re-encode changed the result:\n%+v\nvs\n%+v", res, back)
		}
	})
}
