package wire

import (
	"fmt"
	"math"
	"testing"

	"openivm/internal/sqltypes"
)

// TestPreparedNonFiniteParams: a DOUBLE parameter carries all 64 bits, so
// NaN and both infinities reach the server and come back unchanged — as
// stored rows and as a bound comparison value.
func TestPreparedNonFiniteParams(t *testing.T) {
	_, cl := startServer(t)
	mustExecRemote(t, cl, "CREATE TABLE f (name TEXT, x DOUBLE)")
	if err := cl.Prepare("ins", "INSERT INTO f VALUES ($1, $2)"); err != nil {
		t.Fatal(err)
	}
	in := map[string]float64{"nan": math.NaN(), "pinf": math.Inf(1), "ninf": math.Inf(-1)}
	for name, x := range in {
		if _, err := cl.ExecPrepared("ins", sqltypes.NewString(name), sqltypes.NewFloat(x)); err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
	}
	resp, err := cl.Exec("SELECT name, x FROM f")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != len(in) {
		t.Fatalf("rows = %v, want %d", resp.Rows, len(in))
	}
	for _, r := range resp.Rows {
		want := in[r[0].S]
		if r[1].T != sqltypes.TypeFloat || math.Float64bits(r[1].Float()) != math.Float64bits(want) {
			t.Errorf("%s: got %v, want %v", r[0].S, r[1], want)
		}
	}
	if err := cl.Prepare("eq", "SELECT name FROM f WHERE x = $1"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pinf", "ninf"} {
		resp, err := cl.ExecPrepared("eq", sqltypes.NewFloat(in[name]))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Rows) != 1 || resp.Rows[0][0].S != name {
			t.Errorf("x = %v selects %v, want %s", in[name], resp.Rows, name)
		}
	}
}

// TestBytesSurviveTransport: strings travel as raw bytes in both
// directions. A parameter and a literal in statement text that are not
// valid UTF-8 are stored byte for byte, not with replacement characters.
func TestBytesSurviveTransport(t *testing.T) {
	srv, cl := startServer(t)
	mustExecRemote(t, cl, "CREATE TABLE b (k INTEGER, s VARCHAR)")
	if err := cl.Prepare("ins", "INSERT INTO b VALUES ($1, $2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ExecPrepared("ins", sqltypes.NewInt(1), sqltypes.NewString("b\xff\xfe")); err != nil {
		t.Fatal(err)
	}
	mustExecRemote(t, cl, "INSERT INTO b VALUES (2, 'c\xff')")
	for k, want := range map[int]string{1: "b\xff\xfe", 2: "c\xff"} {
		res, err := srv.DB.Exec(fmt.Sprintf("SELECT s, LENGTH(s) FROM b WHERE k = %d", k))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("k = %d: rows = %v", k, res.Rows)
		}
		if got, n := res.Rows[0][0].S, res.Rows[0][1].I; got != want || n != int64(len(want)) {
			t.Errorf("k = %d: stored %q (LENGTH %d), want %q (LENGTH %d)", k, got, n, want, len(want))
		}
		// And back out over the wire, byte for byte.
		resp, err := cl.Exec(fmt.Sprintf("SELECT s FROM b WHERE k = %d", k))
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Rows[0][0].S; got != want {
			t.Errorf("k = %d: read back %q, want %q", k, got, want)
		}
	}
}
