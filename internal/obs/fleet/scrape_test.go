package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestParseTarget(t *testing.T) {
	tgt, err := ParseTarget("sim0=http://127.0.0.1:8081")
	if err != nil || tgt.ID != "sim0" || tgt.BaseURL != "http://127.0.0.1:8081" {
		t.Fatalf("tgt = %+v, err = %v", tgt, err)
	}
	// Bare URL derives the id from host:port; trailing slash is trimmed.
	tgt, err = ParseTarget("http://127.0.0.1:8082/")
	if err != nil || tgt.ID != "127.0.0.1:8082" || tgt.BaseURL != "http://127.0.0.1:8082" {
		t.Fatalf("tgt = %+v, err = %v", tgt, err)
	}
	if _, err := ParseTarget("127.0.0.1:8083"); err == nil {
		t.Fatal("schemeless target accepted")
	}
	if _, err := ParseTarget("sim0=ftp://x"); err == nil {
		t.Fatal("non-http scheme accepted")
	}
}

// fakeWorker serves the three obs.Inspector endpoints the Poller scrapes.
func fakeWorker(t *testing.T, promText []byte, status, blame string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write(promText)
	})
	mux.HandleFunc("/status.json", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, status)
	})
	mux.HandleFunc("/blame.json", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, blame)
	})
	return httptest.NewServer(mux)
}

func TestScrapeOnce(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	srv := fakeWorker(t, workerExposition(t, "shadow", 4),
		`{"label":"shadow/mix/h128","done":false,"sim_now_ps":250,"sim_total_ps":1000}`,
		`[{"label":"reader","requests":8,"reads":8,"conserved":true,"stall_ps":{}}]`)
	defer srv.Close()

	p := NewPoller(c, []Target{{ID: "sim0", BaseURL: srv.URL}}, srv.Client())
	p.ScrapeAll()

	ws := c.WorkersJSON()
	if len(ws) != 1 || ws[0].ID != "sim0" {
		t.Fatalf("workers = %+v", ws)
	}
	w := ws[0]
	if w.Error != "" {
		t.Fatalf("scrape error: %s", w.Error)
	}
	if w.Point != "shadow/mix/h128" || w.Scheme != "shadow" || w.Percent != 25 || w.Done {
		t.Fatalf("scraped state = %+v", w)
	}
	fj := c.Fleet()
	if fj.FlipsPerScheme["shadow"] != 4 {
		t.Fatalf("flips = %+v", fj.FlipsPerScheme)
	}
	if len(fj.Blame) != 1 || fj.Blame[0].Requests != 8 {
		t.Fatalf("blame = %+v", fj.Blame)
	}
}

func TestScrapeFailureRecordsError(t *testing.T) {
	clk := newFakeClock()
	c := newTestCollector(clk)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	p := NewPoller(c, []Target{{ID: "sim0", BaseURL: srv.URL}}, srv.Client())
	p.ScrapeAll()
	ws := c.WorkersJSON()
	if len(ws) != 1 || ws[0].Error == "" {
		t.Fatalf("scrape failure not recorded: %+v", ws)
	}
	if !strings.Contains(ws[0].Error, "500") {
		t.Fatalf("error %q does not carry the status", ws[0].Error)
	}
}

func TestPollerStartStop(t *testing.T) {
	before := runtime.NumGoroutine()
	clk := newFakeClock()
	c := newTestCollector(clk)
	srv := fakeWorker(t, workerExposition(t, "shadow", 1),
		`{"label":"shadow/mix/h64","done":true}`, `[]`)
	defer srv.Close()
	p := NewPoller(c, []Target{{ID: "sim0", BaseURL: srv.URL}}, srv.Client())
	p.Start(time.Millisecond)
	scraped := false
	for i := 0; i < 5000 && !scraped; i++ {
		if ws := c.WorkersJSON(); len(ws) == 1 && ws[0].Error == "" && ws[0].Point != "" {
			scraped = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !scraped {
		t.Fatalf("poller never scraped: %+v", c.WorkersJSON())
	}
	p.Stop() // must not hang; waits for the goroutine to exit
	var nilPoller *Poller
	nilPoller.Start(time.Millisecond)
	nilPoller.Stop()
	nilPoller.ScrapeAll()

	// Closing the server also closes its client's idle connections, so
	// every goroutine left after that belongs to the poller.
	srv.Close()
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 2000 {
			t.Fatalf("%d goroutines outlived Start/Stop (before: %d)", runtime.NumGoroutine()-before, before)
		}
		time.Sleep(time.Millisecond)
	}
}
