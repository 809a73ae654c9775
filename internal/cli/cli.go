// Package cli is the output path the simulator's command-line tools share:
// usage errors and exits that stop the pprof profiles first, the background
// HTTP server the live inspector runs on, and the trace, metrics, and
// flight-recorder files. cmd/shadowsim and cmd/shadowexp both call it, so
// each observability behaviour has one implementation; cmd/shadowvet writes
// its reports through WriteFile.
//
// Status lines ("trace: ...", "metrics: ...") go to stderr, keeping stdout
// for the tools' reports and CSV tables.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"shadow/internal/obs"
	"shadow/internal/obs/flight"
)

// profiles is the profiling state. runtime/pprof's CPU profile is
// process-global, so the state that stops it is too.
var profiles struct {
	cpu     *os.File
	memPath string
	stopped bool
}

// StartProfiles starts a CPU profile written to cpuPath and arranges a heap
// profile written to memPath by StopProfiles. An empty path skips that
// profile.
func StartProfiles(cpuPath, memPath string) {
	profiles.memPath = memPath
	if cpuPath == "" {
		return
	}
	f, err := os.Create(cpuPath)
	ExitOn(err)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		ExitOn(err)
	}
	profiles.cpu = f
}

// StopProfiles completes the profiles StartProfiles began. It is idempotent;
// Exit and ExitOn call it, so every exit path leaves complete pprof files.
func StopProfiles() {
	if profiles.stopped {
		return
	}
	profiles.stopped = true
	if profiles.cpu != nil {
		pprof.StopCPUProfile()
		if err := profiles.cpu.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	if profiles.memPath != "" {
		runtime.GC()
		if err := WriteFile(profiles.memPath, pprof.WriteHeapProfile); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
}

// Exit stops the profiles and exits with code.
func Exit(code int) {
	StopProfiles()
	os.Exit(code)
}

// ExitOn prints a non-nil err and exits 1.
func ExitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		Exit(1)
	}
}

// Usagef reports a bad command line: the message prefixed with the program
// name, then the flag usage, then exit status 2.
func Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", filepath.Base(os.Args[0]), fmt.Sprintf(format, args...))
	flag.Usage()
	Exit(2)
}

// Serve serves h on addr in the background; name prefixes its log lines. The
// returned stop func shuts the server down gracefully, giving in-flight
// requests up to two seconds, and returns once it has exited.
func Serve(name, addr string, h http.Handler) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() {
		errc <- srv.Serve(ln)
	}()
	fmt.Fprintf(os.Stderr, "%s: serving on %s\n", name, ln.Addr())
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: shutdown: %v\n", name, err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		}
		fmt.Fprintf(os.Stderr, "%s: shut down\n", name)
	}, nil
}

// NewWatch builds the flight watch over a ring of capacity events (no ring
// when capacity is 0) and reports its first trip on stderr.
func NewWatch(capacity int) *flight.Watch {
	var ring *flight.Ring
	if capacity > 0 {
		ring = flight.NewRing(capacity)
	}
	w := flight.NewWatch(ring)
	w.OnTrip(func(tr flight.Trip) {
		fmt.Fprintf(os.Stderr, "watchdog %s tripped at %d ps: %s (flight ring frozen)\n",
			tr.Watchdog, tr.AtPS, tr.Detail)
	})
	return w
}

// NewRecorder builds the run's recorder, teeing events into the watch's
// ring. It returns nil when there is nothing to record.
func NewRecorder(events, metrics bool, watch *flight.Watch) *obs.Recorder {
	opt := obs.Options{Events: events, Metrics: metrics}
	if ring := watch.Ring(); ring != nil {
		opt.Flight = ring
	} else if !events && !metrics {
		return nil
	}
	return obs.NewRecorder(opt)
}

// WriteObs writes the recorder's Chrome trace to traceOut and its metrics
// JSON dump to metricsOut. An empty path, or a nil recorder, writes nothing.
func WriteObs(rec *obs.Recorder, traceOut, metricsOut string) error {
	if rec == nil {
		return nil
	}
	if traceOut != "" {
		if err := WriteFile(traceOut, rec.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: %d events over %d tracks -> %s (open in ui.perfetto.dev)\n",
			rec.EventCount(), len(rec.Tracks()), traceOut)
		if n := rec.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d events dropped past the %d-event cap; shorten the run\n", n, len(rec.Events()))
		}
	}
	if metricsOut != "" {
		if err := WriteFile(metricsOut, rec.Metrics().WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics: %s\n", metricsOut)
	}
	return nil
}

// WriteFlightFile writes the flight dump to path. An empty path, or a watch
// without a ring, writes nothing.
func WriteFlightFile(watch *flight.Watch, path string) error {
	ring := watch.Ring()
	if path == "" || ring == nil {
		return nil
	}
	if err := WriteFile(path, watch.WriteDump); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "flight: %d of %d events preserved -> %s\n", ring.Len(), ring.Total(), path)
	return nil
}

// RecoverFlight, deferred in main, preserves the flight window across a
// panic: it freezes the ring, writes the dump best-effort to path (stderr
// when path is empty or cannot be created), and re-raises the panic.
func RecoverFlight(watch *flight.Watch, path string) {
	r := recover()
	if r == nil {
		return
	}
	if ring := watch.Ring(); ring != nil {
		ring.Freeze()
		if path != "" && WriteFile(path, watch.WriteDump) == nil {
			fmt.Fprintf(os.Stderr, "panic: flight dump written to %s\n", path)
		} else {
			fmt.Fprintln(os.Stderr, "panic: flight dump follows")
			watch.WriteDump(os.Stderr)
		}
	}
	panic(r) //shadowvet:ignore panicmsg -- re-raising the original panic value after the flight dump
}

// WriteFile creates path and fills it with write, returning the first error
// of the create, the write, and the close.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
