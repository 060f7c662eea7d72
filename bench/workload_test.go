package main

import (
	"bytes"
	"fmt"
	"testing"
)

// streamBytes renders a workload's setup and stream as the bytes they put
// on the wire, plus each op's late-bound target draw.
func streamBytes(w *workload) []byte {
	var b bytes.Buffer
	for _, ops := range [][]op{w.setup, w.ops} {
		for _, o := range ops {
			fmt.Fprintf(&b, "%s %s %v %d|", o.route, o.path, o.pick, o.read)
			for _, part := range o.body {
				b.Write(part)
			}
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			a, err := buildWorkload(spec, 7, 60)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildWorkload(spec, 7, 60)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(streamBytes(a), streamBytes(b)) {
				t.Fatal("two streams from seed 7 differ")
			}
			c, err := buildWorkload(spec, 8, 60)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(streamBytes(a), streamBytes(c)) {
				t.Fatal("seeds 7 and 8 gave the same stream")
			}
			// A longer stream extends the shorter one: more requests never
			// change the ones before them.
			long, err := buildWorkload(spec, 7, 120)
			if err != nil {
				t.Fatal(err)
			}
			long.ops = long.ops[:60]
			if !bytes.Equal(streamBytes(a), streamBytes(long)) {
				t.Fatal("a longer stream changed its first 60 requests")
			}
		})
	}
}

func TestMixerSendsExactShares(t *testing.T) {
	m := &mixer{rng: subRNG(1, "test", "mix"), counts: []int{10, 1, 17, 6, 2, 2, 2}}
	seen := make([]int, len(m.counts))
	for i := 0; i < 3*40; i++ {
		seen[m.next()]++
	}
	for kind, c := range m.counts {
		if seen[kind] != 3*c {
			t.Errorf("kind %d drawn %d times in three blocks, want %d", kind, seen[kind], 3*c)
		}
	}
}

// Every block of a stream holds the same mix of operations (and, on
// plan-cold, of base networks), so each replica's open loop times the same
// mix whatever the seed.
func TestBlocksHoldTheSameMix(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			w, err := buildWorkload(spec, 5, 3*spec.block)
			if err != nil {
				t.Fatal(err)
			}
			var first map[string]int
			for b := 0; b+spec.block <= len(w.ops); b += spec.block {
				mix := map[string]int{}
				for _, o := range w.ops[b : b+spec.block] {
					key := fmt.Sprintf("%s %d", o.route, o.read)
					if o.route == routePlan {
						k := w.plans[o.plan]
						key = fmt.Sprintf("%s budget=%v", k.op, k.budget > 0)
						if spec.name == "plan-cold" {
							mix[fmt.Sprintf("net %d", k.net)]++
						}
					}
					mix[key]++
				}
				if first == nil {
					first = mix
				} else if fmt.Sprint(mix) != fmt.Sprint(first) {
					t.Fatalf("block at %d holds %v, the first block %v", b, mix, first)
				}
			}
		})
	}
}

func TestPlanColdSamplesFivePercent(t *testing.T) {
	spec, _ := lookupWorkload("plan-cold")
	w, err := buildWorkload(spec, 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(w.sample); n < 8 || n > 35 {
		t.Errorf("sampled %d of 400 requests, want about 20", n)
	}
	keys := map[string]bool{}
	for _, o := range w.ops {
		k := string(bytes.Join(o.body, nil)) + o.path
		if keys[k] {
			t.Fatal("plan-cold repeats a request; every request must miss the cache")
		}
		keys[k] = true
	}
}
