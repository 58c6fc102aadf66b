package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// streamsGoldenPath holds one line per streamDigests case: the stream's
// length and an FNV-64a digest over every arrival's AtMS bits and batch.
// The file was generated before the generators presized their output, so
// any change to the draws or their order shows up here.
const streamsGoldenPath = "testdata/streams.golden"

func digest(arr []Arrival) string {
	h := fnv.New64a()
	var b [16]byte
	for _, a := range arr {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(a.AtMS))
		binary.LittleEndian.PutUint64(b[8:], uint64(a.Batch))
		h.Write(b[:])
	}
	return fmt.Sprintf("n=%d fnv=%016x", len(arr), h.Sum64())
}

// streamDigests covers PoissonStream at three rates and three durations,
// every ScenarioByName preset at two seeds, the burst-deep flash crowd,
// and Synthesize under both default distributions.
func streamDigests() []string {
	var out []string
	for _, rate := range []float64{50, 2000, 12345.5} {
		for _, dur := range []float64{0, 1000, 15600} {
			arr := PoissonStream(rand.New(rand.NewSource(1)), DefaultTrace(), rate, dur)
			out = append(out, fmt.Sprintf("poisson rate=%g dur=%g %s", rate, dur, digest(arr)))
		}
	}
	for _, name := range []string{"flash-crowd", "diurnal", "batch-mix-inversion", "heavy-tail"} {
		s, err := ScenarioByName(name, 20000, 100)
		if err != nil {
			panic(err)
		}
		for _, seed := range []int64{1, 2} {
			out = append(out, fmt.Sprintf("scenario %s seed=%d %s", name, seed, digest(s.Generate(seed))))
		}
	}
	out = append(out, "flash-crowd 20000/750/1800 seed=1 "+digest(FlashCrowd(20000, 750, 1800, DefaultTrace()).Generate(1)))
	out = append(out, "synthesize lognormal "+digest(Synthesize(42, DefaultTrace(), 100, 5000).Arrivals))
	out = append(out, "synthesize gaussian "+digest(Synthesize(7, DefaultGaussian(), 2500, 3000).Arrivals))
	return out
}

func TestStreamsGolden(t *testing.T) {
	raw, err := os.ReadFile(streamsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := streamDigests()
	if len(got) != len(want) {
		t.Fatalf("%d digests, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("case %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
