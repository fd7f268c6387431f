package experiments

import (
	"strings"
	"testing"
	"time"
)

func tinyEnv() *Env {
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	cfg.Queries = 2
	cfg.Ks = []int{5, 10}
	return NewEnv(cfg)
}

func TestTableRender(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== T ==", "a", "b", "1", "2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in %q", want, out)
		}
	}
}

func TestEnvCaching(t *testing.T) {
	e := tinyEnv()
	a := e.Dataset("audio")
	b := e.Dataset("audio")
	if a != b {
		t.Fatal("datasets not cached")
	}
	q1 := e.Queries("audio")
	q2 := e.Queries("audio")
	if &q1[0][0] != &q2[0][0] {
		t.Fatal("queries not cached")
	}
	if e.BP("audio") != e.BP("audio") {
		t.Fatal("BP index not cached")
	}
}

func TestTable4Shape(t *testing.T) {
	e := tinyEnv()
	tables := e.Table4()
	if len(tables) != 1 {
		t.Fatalf("got %d tables", len(tables))
	}
	if len(tables[0].Rows) != 6 {
		t.Fatalf("got %d rows, want 6 datasets", len(tables[0].Rows))
	}
}

func TestFig10Shape(t *testing.T) {
	e := tinyEnv()
	tables := e.Fig10()
	if len(tables) != 2 {
		t.Fatalf("got %d tables", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) != 4 {
			t.Fatalf("%s: %d rows, want 4 datasets", tab.Title, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%s: ragged row %v", tab.Title, row)
			}
		}
	}
}

func TestFig15Shape(t *testing.T) {
	e := tinyEnv()
	tables := e.Fig15("normal")
	if len(tables) != 3 {
		t.Fatalf("got %d tables (want OR, I/O, time)", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) != len(e.Config().Ks) {
			t.Fatalf("%s: %d rows, want %d k values", tab.Title, len(tab.Rows), len(e.Config().Ks))
		}
	}
}

func TestComparisonCached(t *testing.T) {
	e := tinyEnv()
	a := e.comparison("sift")
	b := e.comparison("sift")
	if a != b {
		t.Fatal("comparison not cached between Fig11 and Fig12")
	}
}

func TestDurableShape(t *testing.T) {
	e := tinyEnv()
	tables := e.Durable(16)
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want policy + recovery", len(tables))
	}
	if len(tables[0].Rows) != 4 {
		t.Fatalf("got %d policy rows, want 4", len(tables[0].Rows))
	}
	if len(tables[1].Rows) != 3 {
		t.Fatalf("got %d recovery rows, want 3", len(tables[1].Rows))
	}
	// Every policy must have acknowledged all mutations by its Sync.
	for _, row := range tables[0].Rows {
		if !strings.Contains(row[3], "16/16") {
			t.Fatalf("policy %q did not settle: synced/last = %q", row[0], row[3])
		}
	}
}

func TestServeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the open-loop generator runs wall-clock windows")
	}
	e := tinyEnv()
	tables := e.Serve(2)
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	if len(tables[0].Rows) != 4 {
		t.Fatalf("got %d rate rows, want 4", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if len(row) != 8 {
			t.Fatalf("row %v has %d columns, want 8", row, len(row))
		}
	}
}

// TestOpenLoopDue pins the generator's catch-up arithmetic: a late tick
// owes every request that came due since the last one, so the rate sent
// is the rate asked for however the ticker drifts.
func TestOpenLoopDue(t *testing.T) {
	for _, c := range []struct {
		elapsed time.Duration
		rate    float64
		issued  int64
		want    int64
	}{
		{0, 1000, 0, 0},
		{time.Millisecond, 1000, 0, 1},
		{10 * time.Millisecond, 1000, 1, 9},     // nine ticks dropped: all nine still go out
		{1500 * time.Microsecond, 1000, 1, 0},   // the next one is not due yet
		{time.Millisecond, 4000, 0, 4},          // faster than the tick: four per tick
		{100 * time.Millisecond, 10, 0, 1},      // slower than the tick: most ticks send none
		{100 * time.Millisecond, 10, 1, 0},      //   ... once it went out
		{time.Second, 500, 600, 0},              // never negative
		{2 * time.Second, 32600.5, 60000, 5201}, // ⌊65 201⌋ − 60 000
	} {
		if got := due(c.elapsed, c.rate, c.issued); got != c.want {
			t.Errorf("due(%v, %g, %d) = %d, want %d", c.elapsed, c.rate, c.issued, got, c.want)
		}
	}
}
