package main

import (
	"math"
	"sync"
	"time"
)

// sensorPeriod is how often the sensor times its reference loop: often
// enough for a one-second set-up to hold twenty samples, seldom enough that
// the loop (about half a millisecond) keeps the second CPU under 2 % busy.
const sensorPeriod = 40 * time.Millisecond

// sensor measures how fast the box is running, beside the workload. The
// benchmark's boxes are small shared virtual machines whose speed wanders
// with the neighbours' load: on the development box identical 9 s passes
// differed by 9 % (quartile spread) and 29 % (range) within 25 minutes, and
// the medians of ten consecutive runs by 13–17 %, which no bound of a tenth
// survives. The sensor times a fixed loop of dense multiply-adds — none of
// the repository's code, so no change under test can move it — on its own
// goroutine every sensorPeriod, and a timed phase's wall-clock is divided by
// the slowdown the loop saw during that phase (see slowdown). On a quiet
// box every sample reads the same and the division is by one.
type sensor struct {
	mu   sync.Mutex
	at   []time.Time
	took []float64 // seconds
	stop chan struct{}
	done chan struct{}
}

func startSensor() *sensor {
	s := &sensor{stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

// close stops the sensor and waits for its goroutine.
func (s *sensor) close() {
	close(s.stop)
	<-s.done
}

func (s *sensor) loop() {
	defer close(s.done)
	const m, k, n = 32, 64, 32
	a, b, c := make([]float64, m*k), make([]float64, k*n), make([]float64, m*n)
	for i := range a {
		a[i] = float64(i%7) + 0.5
	}
	for i := range b {
		b[i] = float64(i%5) + 0.25
	}
	tick := time.NewTicker(sensorPeriod)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		start := time.Now()
		for rep := 0; rep < 6; rep++ {
			for i := 0; i < m; i++ {
				for p := 0; p < k; p++ {
					av := a[i*k+p]
					row := b[p*n : (p+1)*n]
					out := c[i*n : (i+1)*n]
					for j := range out {
						out[j] += av * row[j]
					}
				}
			}
		}
		took := time.Since(start).Seconds()
		s.mu.Lock()
		s.at = append(s.at, start)
		s.took = append(s.took, took)
		s.mu.Unlock()
	}
}

// slowdown is the factor by which the box ran a phase slower than its
// fastest moment since the sensor started: the square root of the median
// reference time inside [from, to] over the smallest reference time seen so
// far. The square root is measured, not derived: a loop of back-to-back
// multiply-adds loses about twice as much to a busy neighbour as the
// workloads do (fitted exponents 0.43–0.60 on paper-lossy and fleet-scan
// passes over 25 minutes; at 0.5 the medians of ten consecutive runs agreed
// within 3 % where the raw ones differed by 13–17 %). A phase too short to
// hold a sample reads 1.
func (s *sensor) slowdown(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var inside []float64
	floor := math.Inf(1)
	for i, at := range s.at {
		floor = math.Min(floor, s.took[i])
		if !at.Before(from) && at.Before(to) {
			inside = append(inside, s.took[i])
		}
	}
	if len(inside) == 0 {
		return 1
	}
	return math.Sqrt(median(inside) / floor)
}
