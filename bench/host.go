package main

import (
	"bufio"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// hostProbe is the host-state diagnostic: a pointer chase and a streaming
// sum over a 64 MB array the bench process owns, run around every pass. The
// build host flips between a quiet and a memory-contended state every second
// or two, and now and then stays contended for ten minutes and more, with no
// steal accounted; these two kernels see it (chase +25 %, stream +38 %)
// where an ALU loop does not. Diagnostic only: memory-bound requests rise
// more than the kernels do (+60 % on the 605 k-range shape), so scaling by
// them would under-correct.
type hostProbe struct {
	next   []uint32 // one random cycle over the whole array (Sattolo)
	chase  []float64
	stream []float64
	sink   uint64
}

const (
	hostArrayBytes = 64 << 20
	hostChaseSteps = 200_000
	// disturbedFactor marks a pass whose surrounding kernel times exceed
	// this multiple of the run's own minimum.
	disturbedFactor = 1.2
)

func newHostProbe() *hostProbe {
	n := hostArrayBytes / 4
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	// A fixed seed: the kernels measure the host, not the workload.
	rng := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &hostProbe{next: next}
}

// sample runs both kernels once and records their wall times in ms.
func (h *hostProbe) sample() {
	t0 := time.Now()
	p := uint32(h.sink % uint64(len(h.next)))
	for i := 0; i < hostChaseSteps; i++ {
		p = h.next[p]
	}
	t1 := time.Now()
	var sum uint64
	for _, v := range h.next {
		sum += uint64(v)
	}
	t2 := time.Now()
	h.sink += uint64(p) + sum
	h.chase = append(h.chase, ms(t1.Sub(t0)))
	h.stream = append(h.stream, ms(t2.Sub(t1)))
}

// disturbed counts the passes with a kernel sample, before or after, above
// disturbedFactor × the run's minimum. Sample k precedes pass k and sample
// k+1 follows it.
func (h *hostProbe) disturbed() int {
	if len(h.chase) < 2 {
		return 0
	}
	cmin, smin := slices.Min(h.chase), slices.Min(h.stream)
	slow := func(k int) bool {
		return h.chase[k] > disturbedFactor*cmin || h.stream[k] > disturbedFactor*smin
	}
	n := 0
	for k := 0; k+1 < len(h.chase); k++ {
		if slow(k) || slow(k+1) {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hostBlock describes where a run happened, so two result files can be told
// apart before their numbers are compared.
type hostBlock struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
}

func describeHost(seed int64, scale string) hostBlock {
	return hostBlock{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Seed:       seed,
		Scale:      scale,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the enclosing repository without running git;
// the driver's checkout is not a repository, and says so.
func gitCommit() string {
	for _, dir := range []string{".", ".."} {
		head, err := os.ReadFile(dir + "/.git/HEAD")
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			b, err := os.ReadFile(dir + "/.git/" + name)
			if err != nil {
				return name
			}
			ref = strings.TrimSpace(string(b))
		}
		return ref
	}
	return "none"
}
