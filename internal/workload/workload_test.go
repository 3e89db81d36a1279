package workload

import (
	"strings"
	"testing"

	"openivm/internal/engine"
)

func TestGroupsLoad(t *testing.T) {
	db := engine.Open("w", engine.DialectDuckDB)
	g := Groups{Rows: 1000, NumGroups: 10, Seed: 1}
	if err := g.Load(db); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT COUNT(*), COUNT(DISTINCT group_index) FROM groups")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 1000 {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Rows[0][1].I != 10 {
		t.Errorf("groups = %v", res.Rows)
	}
}

func TestGroupsLoadDeterministic(t *testing.T) {
	sum := func() int64 {
		db := engine.Open("w", engine.DialectDuckDB)
		g := Groups{Rows: 500, NumGroups: 5, Seed: 42}
		if err := g.Load(db); err != nil {
			t.Fatal(err)
		}
		res, _ := db.Exec("SELECT SUM(group_value) FROM groups")
		return res.Rows[0][0].I
	}
	if sum() != sum() {
		t.Error("same seed must generate identical data")
	}
}

func TestUpdateStreamMix(t *testing.T) {
	g := Groups{Rows: 100, NumGroups: 10}
	stream := g.UpdateStream(1000, 0.5, 0.3, 7)
	if len(stream) != 1000 {
		t.Fatalf("len = %d", len(stream))
	}
	var ins, del, upd int
	for _, u := range stream {
		switch {
		case strings.HasPrefix(u.SQL, "INSERT"):
			ins++
		case strings.HasPrefix(u.SQL, "DELETE"):
			del++
		case strings.HasPrefix(u.SQL, "UPDATE"):
			upd++
		}
	}
	if ins < 400 || ins > 600 {
		t.Errorf("inserts = %d, want ~500", ins)
	}
	if del < 200 || del > 400 {
		t.Errorf("deletes = %d, want ~300", del)
	}
	if upd == 0 {
		t.Error("no updates generated")
	}
}

func TestUpdateStreamExecutes(t *testing.T) {
	db := engine.Open("w", engine.DialectDuckDB)
	g := Groups{Rows: 100, NumGroups: 10, Seed: 1}
	if err := g.Load(db); err != nil {
		t.Fatal(err)
	}
	for _, u := range g.UpdateStream(100, 0.6, 0.2, 3) {
		if _, err := db.Exec(u.SQL); err != nil {
			t.Fatalf("%s: %v", u.SQL, err)
		}
	}
}

func TestInsertBatch(t *testing.T) {
	db := engine.Open("w", engine.DialectDuckDB)
	g := Groups{Rows: 0, NumGroups: 10, Seed: 1}
	if err := g.Load(db); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(g.InsertBatch(50, 2)); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Exec("SELECT COUNT(*) FROM groups")
	if res.Rows[0][0].I != 50 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSalesLoad(t *testing.T) {
	db := engine.Open("w", engine.DialectDuckDB)
	s := Sales{Customers: 50, Orders: 500, Regions: 5, Seed: 1}
	if err := s.Load(db); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Exec("SELECT COUNT(*) FROM orders")
	if res.Rows[0][0].I != 500 {
		t.Errorf("orders = %v", res.Rows)
	}
	// Every order references an existing customer.
	res, _ = db.Exec(`SELECT COUNT(*) FROM orders WHERE cid NOT IN (SELECT cid FROM customers)`)
	if res.Rows[0][0].I != 0 {
		t.Errorf("dangling orders = %v", res.Rows)
	}
}

func TestFraction(t *testing.T) {
	if Fraction(0.1) != "10%" {
		t.Errorf("got %q", Fraction(0.1))
	}
	if Fraction(0.001) != "0.1%" {
		t.Errorf("got %q", Fraction(0.001))
	}
}

func TestGroupKeyStable(t *testing.T) {
	if GroupKey(7) != "g000007" {
		t.Errorf("got %q", GroupKey(7))
	}
}
