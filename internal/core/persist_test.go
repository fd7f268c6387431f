package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/dataset"
	"brepartition/internal/scan"
)

func TestIndexPersistRoundTrip(t *testing.T) {
	ix, ds := buildSmall(t, "ed", 4)
	path := filepath.Join(t.TempDir(), "index.bpi")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != ix.N() || got.Dim() != ix.Dim() || got.M() != ix.M() {
		t.Fatalf("geometry changed: %dx%d M=%d", got.N(), got.Dim(), got.M())
	}
	// Loaded index must answer identically to the original (and exactly).
	for _, q := range dataset.SampleQueries(ds, 5, 31) {
		a, err := ix.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Items {
			if a.Items[i].ID != b.Items[i].ID ||
				math.Abs(a.Items[i].Score-b.Items[i].Score) > 1e-12 {
				t.Fatalf("answers diverge at %d: %+v vs %+v", i, a.Items[i], b.Items[i])
			}
		}
	}
}

func TestIndexPersistDetectsCorruption(t *testing.T) {
	ix, _ := buildSmall(t, "ed", 3)
	path := filepath.Join(t.TempDir(), "index.bpi")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x5A
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrBadIndexFile) {
		t.Fatalf("corrupt file: err = %v, want ErrBadIndexFile", err)
	}
}

func TestIndexPersistTruncated(t *testing.T) {
	ix, _ := buildSmall(t, "isd", 3)
	path := filepath.Join(t.TempDir(), "index.bpi")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("truncated index accepted")
	}
}

func TestIndexPersistUnknownDivergence(t *testing.T) {
	ix, _ := buildSmall(t, "ed", 3)
	path := filepath.Join(t.TempDir(), "index.bpi")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFileWith(path, func(string) (bregman.Divergence, error) {
		return nil, errors.New("nope")
	})
	if !errors.Is(err, ErrBadIndexFile) {
		t.Fatalf("err = %v", err)
	}
}

func TestRangeSearchExact(t *testing.T) {
	ix, ds := buildSmall(t, "ed", 4)
	div := ix.Div
	q := ds.Points[12]
	for _, r := range []float64{0, 0.5, 2, 10} {
		got, st, err := ix.RangeSearch(q, r)
		if err != nil {
			t.Fatal(err)
		}
		want := scan.Range(div, ds.Points, q, r)
		if len(got) != len(want) {
			t.Fatalf("r=%g: got %d, want %d", r, len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			if got[i].Score < got[i-1].Score {
				t.Fatal("range results not sorted")
			}
		}
		if len(got) > 0 && st.PageReads == 0 {
			t.Fatal("no I/O charged")
		}
	}
	// ISSUE 23: a negative radius is rejected by Query.Validate with a typed
	// error at every layer (it used to answer empty here and 400 at the
	// server).
	if got, _, err := ix.RangeSearch(q, -1); !errors.Is(err, ErrRadius) || got != nil {
		t.Fatalf("negative radius: got %v, err %v, want ErrRadius", got, err)
	}
	if _, _, err := ix.RangeSearch([]float64{1}, 1); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}
