package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// On a shared host the hypervisor can give part of the machine's CPU
// time to other guests ("steal"). While it does, every phase of a run
// slows whatever the program does: at 15-35% steal the tail latencies
// of a run tripled, and in one-second slots the slowest /related of the
// sharded workload grew from about 10 ms at no steal to 20-30 ms at
// 3-5%. The runner therefore samples the machine's steal share once per
// stealSlot through the measured phases and measures the seconds whose
// share stayed within stealLimit; only when those hold less than
// minClean of a phase does it add the quietest of the other seconds,
// so that a run on a noisy host still reports figures, from its
// quietest part. Server starts are chosen the same way.
const (
	stealSlot  = time.Second
	stealLimit = 0.02
	minClean   = 0.4
)

// cpuTimes are the machine-wide CPU tick counters of /proc/stat.
type cpuTimes struct{ steal, total float64 }

func readCPU() (cpuTimes, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	fields := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("/proc/stat: no steal column in %q", fields)
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat: %w", err)
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// share is the fraction of CPU time stolen between since and t.
func (t cpuTimes) share(since cpuTimes) float64 {
	return ratio(t.steal-since.steal, t.total-since.total)
}

type stealSample struct {
	at  time.Time
	cpu cpuTimes
}

// stealWatch samples /proc/stat every stealSlot from its start until
// stop. Its samples cut the watched time into slots, each with its own
// steal share.
type stealWatch struct {
	samples []stealSample
	stopc   chan struct{}
	done    chan struct{}
}

func watchSteal() (*stealWatch, error) {
	first, err := readCPU()
	if err != nil {
		return nil, err
	}
	w := &stealWatch{
		samples: []stealSample{{time.Now(), first}},
		stopc:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(stealSlot)
		defer tick.Stop()
		for {
			select {
			case <-w.stopc:
				return
			case <-tick.C:
				if c, err := readCPU(); err == nil { // it was readable at the start
					w.samples = append(w.samples, stealSample{time.Now(), c})
				}
			}
		}
	}()
	return w, nil
}

// stop ends the sampling with a last sample; samples may be read after
// it returns.
func (w *stealWatch) stop() {
	close(w.stopc)
	<-w.done
	if c, err := readCPU(); err == nil {
		w.samples = append(w.samples, stealSample{time.Now(), c})
	}
}

// slot returns the index of the slot containing t: the i with
// samples[i].at <= t < samples[i+1].at, clamped to the first and last
// slot.
func (w *stealWatch) slot(t time.Time) int {
	i := 0
	for i+2 < len(w.samples) && !w.samples[i+1].at.After(t) {
		i++
	}
	return i
}

// slotShare is the steal share of slot i.
func (w *stealWatch) slotShare(i int) float64 {
	if i+1 >= len(w.samples) {
		return 0
	}
	return w.samples[i+1].cpu.share(w.samples[i].cpu)
}

// overall is the steal share over the whole watched time.
func (w *stealWatch) overall() float64 {
	return w.samples[len(w.samples)-1].cpu.share(w.samples[0].cpu)
}

// choose orders slots from the quietest and returns the ones to
// measure: every slot within stealLimit, then further slots while the
// chosen ones hold less than minClean of total, where size is what a
// slot holds. noisy counts the chosen slots above the limit.
func (w *stealWatch) choose(slots []int, size func(int) int, total int) (chosen []int, noisy int) {
	sort.Ints(slots)
	sort.SliceStable(slots, func(a, b int) bool { return w.slotShare(slots[a]) < w.slotShare(slots[b]) })
	held := 0
	for _, s := range slots {
		if w.slotShare(s) > stealLimit {
			if float64(held) >= minClean*float64(total) {
				break
			}
			noisy++
		}
		chosen = append(chosen, s)
		held += size(s)
	}
	return chosen, noisy
}

// quiet reports which of the instants ats lie in the slots choose
// picks, and how many of those slots were above stealLimit.
func (w *stealWatch) quiet(ats []time.Time) (keep []bool, noisy int) {
	bySlot := map[int][]int{}
	for i, t := range ats {
		s := w.slot(t)
		bySlot[s] = append(bySlot[s], i)
	}
	var slots []int
	for s := range bySlot {
		slots = append(slots, s)
	}
	chosen, noisy := w.choose(slots, func(s int) int { return len(bySlot[s]) }, len(ats))
	keep = make([]bool, len(ats))
	for _, s := range chosen {
		for _, i := range bySlot[s] {
			keep[i] = true
		}
	}
	return keep, noisy
}

// quietRate returns the number of instants in ats per second over the
// slots that lie wholly inside [from, to] and that choose picks, with
// the number of chosen slots, of such slots, and of chosen slots above
// stealLimit.
func (w *stealWatch) quietRate(ats []time.Time, from, to time.Time) (rate float64, measured, slots, noisy int) {
	var whole []int
	for i := 0; i+1 < len(w.samples); i++ {
		if !w.samples[i].at.Before(from) && !w.samples[i+1].at.After(to) {
			whole = append(whole, i)
		}
	}
	chosen, noisy := w.choose(whole, func(int) int { return 1 }, len(whole))
	n, secs := 0, 0.0
	for _, i := range chosen {
		a, b := w.samples[i].at, w.samples[i+1].at
		for _, t := range ats {
			if !t.Before(a) && t.Before(b) {
				n++
			}
		}
		secs += b.Sub(a).Seconds()
	}
	return ratio(float64(n), secs), len(chosen), len(whole), noisy
}
