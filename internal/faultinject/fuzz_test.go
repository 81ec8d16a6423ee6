package faultinject

import "testing"

// FuzzParseSpec feeds arbitrary -chaos strings to ParseSpec. It must never
// panic, and it returns a plan exactly when it returns no error.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"job:panic:p=0.1:max=1;cacheload:corrupt:match=milc",
		"fleet/heartbeat:partition:match=127.0.0.1:18441:max=3",
		"cachestore:writefail:limit=5;job:hang:delay=250ms",
		"job:stall:max=1:delay=1s",
		"",
		";;",
		"job",
		"job:explode",
		"job:panic:p=2",
		"job:panic:frequency=1",
		"job:hang:delay=fast",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(1, spec)
		if (p == nil) != (err != nil) {
			t.Fatalf("ParseSpec(%q) = %v, %v: want a plan exactly when there is no error", spec, p, err)
		}
	})
}
