package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Operation kinds of the closed loops.
const (
	opJoin = iota
	opWindow
	opDistance
	opWrite
	numOps
)

var opNames = [numOps]string{"join", "window", "distance", "write"}

// errWrong marks an answer that differs from the oracle's; it counts in
// failed_frac like an error does.
var errWrong = errors.New("wrong answer")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// samples is a set of latencies.
type samples []time.Duration

// quantile returns the q-quantile by nearest rank (0 when empty).
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(q*float64(len(c))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// medianDur times fn reps times and returns the median duration.
func medianDur(reps int, fn func() error) (time.Duration, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0)))
	}
	return time.Duration(median(xs)), nil
}

// opFunc runs one operation of a closed loop: the seq-th op of client c.
// It returns the op kind, the rows it delivered and an error (errWrong
// for an answer that fails its check).
type opFunc func(c, seq int) (kind, rows int, err error)

// loopResult is what a closed loop measured.
type loopResult struct {
	lat       [numOps]samples
	rows      [numOps]int64
	ops       int
	attempted int
	failed    int
	elapsed   time.Duration
	// cpu is the process CPU time (user + system) over the timed phase.
	cpu      time.Duration
	firstErr error
}

// closedLoop runs clients goroutines, each issuing its next op only after
// the previous one completes: first for warm ops untimed (caches fill),
// then for dur timed. Every op's answer is checked by op itself.
func closedLoop(clients, warm int, dur time.Duration, op opFunc) *loopResult {
	res := &loopResult{}
	var mu sync.Mutex
	var wg, warmed sync.WaitGroup
	start := make(chan struct{})
	var t0 time.Time
	for c := 0; c < clients; c++ {
		wg.Add(1)
		warmed.Add(1)
		go func(c int) {
			defer wg.Done()
			var local loopResult
			seq := 0
			record := func(timed bool) bool {
				o0 := time.Now()
				kind, rows, err := op(c, seq)
				d := time.Since(o0)
				seq++
				local.attempted++
				if err != nil {
					local.failed++
					if local.firstErr == nil {
						local.firstErr = err
					}
					// A transport or server error leaves the client
					// unusable; stop this client rather than spin.
					return errors.Is(err, errWrong)
				}
				if timed {
					local.lat[kind] = append(local.lat[kind], d)
					local.rows[kind] += int64(rows)
					local.ops++
				}
				return true
			}
			for i := 0; i < warm; i++ {
				if !record(false) {
					break
				}
			}
			warmed.Done()
			<-start
			deadline := t0.Add(dur)
			for time.Now().Before(deadline) {
				if !record(true) {
					break
				}
			}
			mu.Lock()
			for k := range local.lat {
				res.lat[k] = append(res.lat[k], local.lat[k]...)
				res.rows[k] += local.rows[k]
			}
			res.ops += local.ops
			res.attempted += local.attempted
			res.failed += local.failed
			if res.firstErr == nil {
				res.firstErr = local.firstErr
			}
			mu.Unlock()
		}(c)
	}
	// The clock starts once every client has warmed up; t0 is written
	// before the close, so every client reads it after.
	warmed.Wait()
	cpu0 := cpuTime()
	t0 = time.Now()
	close(start)
	wg.Wait()
	res.elapsed = time.Since(t0)
	res.cpu = cpuTime() - cpu0
	return res
}

// report turns the loop into end-to-end metrics: ops_per_s, per-kind
// p50/p90, and p50_ms/p90_ms for the headline kind.
func (l *loopResult) report(r *report, headline int) {
	r.attempted += l.attempted
	r.failed += l.failed
	if l.firstErr != nil {
		r.notef("first failure: %v", l.firstErr)
	}
	sec := l.elapsed.Seconds()
	r.set("ops_per_s", "ops/s", float64(l.ops)/sec, l.ops)
	r.set("cpu_ms_per_op", "ms", ms(l.cpu)/float64(max(l.ops, 1)), l.ops)
	for k := 0; k < numOps; k++ {
		s := l.lat[k]
		if len(s) == 0 {
			continue
		}
		r.set(opNames[k]+"_p50_ms", "ms", ms(s.quantile(0.5)), len(s))
		r.set(opNames[k]+"_p90_ms", "ms", ms(s.quantile(0.9)), len(s))
		if k == opJoin {
			r.set("join_rows_per_s", "rows/s", float64(l.rows[k])/sec, len(s))
		}
	}
	h := l.lat[headline]
	r.set("p50_ms", "ms", ms(h.quantile(0.5)), len(h))
	r.set("p90_ms", "ms", ms(h.quantile(0.9)), len(h))
}

// schedule returns a cycle of op kinds holding exactly counts[k] ops of
// kind k, shuffled by rng. Cycling through it keeps a run's op mix
// exact, so per-op averages do not drift with a random draw of kinds.
func schedule(rng *rand.Rand, counts [numOps]int) []int {
	var s []int
	for k, n := range counts {
		for i := 0; i < n; i++ {
			s = append(s, k)
		}
	}
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

// refWork is a fixed computation owned by the benchmark (sort, map
// build, hash) whose median time is printed in the host fingerprint. The
// program never runs it, so it tracks only the host: on a shared host
// its time moves with the same speed drift the workload's latency does.
func refWork(n int) time.Duration {
	rng := rand.New(rand.NewSource(1))
	src := make([]int, 1<<16)
	for i := range src {
		src[i] = rng.Int()
	}
	buf := make([]byte, 256<<10)
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		c := append([]int(nil), src...)
		sort.Ints(c)
		m := make(map[int]int, 1024)
		for j, v := range c[:1<<14] {
			m[v] = j
		}
		h := sha256.Sum256(buf)
		buf[i%len(buf)] ^= h[0] + byte(len(m))
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs))
}

// cpuTime is the process's user plus system CPU time: the serving cost
// of the ops, which host steal and disk waits do not inflate.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap returns the bytes of heap in use after a forced GC.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// pool merges loops run one after another into one result.
func pool(loops []*loopResult) *loopResult {
	res := &loopResult{}
	for _, l := range loops {
		for k := range l.lat {
			res.lat[k] = append(res.lat[k], l.lat[k]...)
			res.rows[k] += l.rows[k]
		}
		res.ops += l.ops
		res.attempted += l.attempted
		res.failed += l.failed
		res.elapsed += l.elapsed
		res.cpu += l.cpu
		if res.firstErr == nil {
			res.firstErr = l.firstErr
		}
	}
	return res
}

// pairSum is an order-independent checksum over result rows.
type pairSum struct {
	n   int
	sum uint64
}

func (p *pairSum) add(a, b string) {
	h := fnv.New64a()
	io.WriteString(h, a)
	h.Write([]byte{0})
	io.WriteString(h, b)
	p.n++
	p.sum += h.Sum64()
}

// cpuModel reads the CPU model name (empty when unavailable).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit resolves HEAD when root is a git work tree ("" otherwise).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, ln := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(ln, " "); ok && name == ref {
			return id
		}
	}
	return ""
}

// sourceDigest hashes the checkout's Go sources, which identifies the
// code where the checkout is not a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
