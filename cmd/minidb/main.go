// Command minidb is an interactive shell over the embedded analytical
// engine with the OpenIVM extension loaded — the reproduction of the
// demo's "DuckDB shell with IVM": visitors can create materialized views,
// run DML against base tables, inspect the compiled scripts and watch
// the incremental maintenance happen.
//
// Modes:
//
//	minidb                      embedded REPL (default)
//	minidb -listen :5433        serve the engine over the wire protocol
//	minidb -connect host:5433   REPL against a remote server; results
//	                            stream in and print batch by batch
//
// -data-dir <dir> (embedded and -listen modes) makes the database
// durable: committed work goes to a write-ahead log in that directory,
// checkpoints compact it, and reopening the same directory recovers
// tables, indexes, and materialized views.
//
// With -connect, -cancel-after=2s arms an out-of-band cancellation for
// every statement: a second connection holds the session's token and
// interrupts any statement still running after the duration — the
// session survives and the shell keeps going.
//
// Meta-commands:
//
//	\q                quit
//	\tables           list tables
//	\views            list materialized views with their query class
//	\scripts <view>   print the stored setup + propagation SQL
//	\stats            the DB's counters, one "name value" line each, in
//	                  name order; with -connect, the server DB's
//	\timing           toggle per-statement elapsed time
//	\load demo        load the paper's Listing 1 schema with sample data
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"openivm/internal/engine"
	"openivm/internal/ivmext"
	"openivm/internal/storage"
	"openivm/internal/wire"
)

var (
	listenAddr  = flag.String("listen", "", "serve the engine over TCP on this address instead of running a REPL")
	connectAddr = flag.String("connect", "", "connect the REPL to a remote wire server (streamed results)")
	cancelAfter = flag.Duration("cancel-after", 0, "with -connect: cancel any statement still running after this duration")
	dataDir     = flag.String("data-dir", "", "durable mode: WAL + checkpoints in this directory (created if missing)")
)

// openDB builds the engine for embedded/serve modes: extension first
// (recovery re-executes CREATE MATERIALIZED VIEW through its hook), then
// the disk backend when -data-dir is set.
func openDB() (*engine.DB, *ivmext.Extension) {
	db := engine.Open("minidb", engine.DialectDuckDB)
	ext := ivmext.Install(db)
	if *dataDir != "" {
		b, err := storage.OpenDisk(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := db.AttachBackend(b); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
	return db, ext
}

func main() {
	flag.Parse()
	switch {
	case *listenAddr != "":
		serve(*listenAddr)
	case *connectAddr != "":
		remoteREPL(*connectAddr, *cancelAfter)
	default:
		localREPL()
	}
}

// serve hosts the engine behind the wire protocol until interrupted.
// The first interrupt drains gracefully: no new connections, in-flight
// statements run to a 10s deadline, then stragglers are interrupted
// through their per-statement contexts and streaming clients receive a
// clean trailer. A second interrupt cuts the drain short.
func serve(addr string) {
	db, _ := openDB()
	defer db.Close()
	srv := wire.NewServer(db)
	bound, err := srv.Listen(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Println("minidb serving on", bound, "(ctrl-c to stop)")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("minidb draining (ctrl-c again to stop now)")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() {
		<-sig
		cancel()
	}()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "shutdown: interrupted in-flight statements:", err)
	}
}

// repl drives the shared line-reading loop. onSQL runs a complete
// statement; onMeta handles a backslash command and returns false to
// quit.
func repl(onSQL func(sql string), onMeta func(cmd string) bool) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "minidb> "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !onMeta(trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt = "   ...> "
			continue
		}
		sql := buf.String()
		buf.Reset()
		prompt = "minidb> "
		onSQL(sql)
	}
}

func localREPL() {
	db, ext := openDB()
	defer db.Close()
	sess := db.NewSession()
	defer sess.Close()
	banner := "minidb — embedded analytical engine with OpenIVM (type \\q to quit, \\load demo for sample data)"
	if *dataDir != "" {
		banner += "\ndurable: " + *dataDir
	}
	fmt.Println(banner)
	timing := false
	repl(func(sql string) {
		start := time.Now()
		res, err := sess.ExecScript(sql)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if res != nil && len(res.Columns) > 0 {
			fmt.Print(res.Format())
			fmt.Printf("(%d rows)\n", len(res.Rows))
		} else if res != nil && res.RowsAffected > 0 {
			fmt.Printf("OK, %d rows affected\n", res.RowsAffected)
		} else {
			fmt.Println("OK")
		}
		if timing {
			fmt.Printf("Time: %v\n", elapsed)
		}
	}, func(cmd string) bool {
		if strings.Fields(cmd)[0] == "\\timing" {
			timing = !timing
			fmt.Println("timing:", onOff(timing))
			return true
		}
		return meta(sess, ext, cmd)
	})
}

// remoteREPL speaks the streamed wire protocol: rows print as their
// batches arrive, so a long result renders incrementally instead of
// after full materialization. cancelAfter > 0 arms the out-of-band
// cancellation example: a second connection interrupts any statement
// still in flight after that duration.
func remoteREPL(addr string, cancelAfter time.Duration) {
	cl, err := wire.Dial(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer cl.Close()
	var canceller *wire.Client
	var token string
	if cancelAfter > 0 {
		if token, err = cl.Token(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if canceller, err = wire.Dial(addr); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer canceller.Close()
	}
	fmt.Println("minidb — connected to", addr, "(type \\q to quit)")
	timing := false
	repl(func(sql string) {
		start := time.Now()
		if canceller != nil {
			timer := time.AfterFunc(cancelAfter, func() { canceller.Cancel(token) })
			defer timer.Stop()
		}
		rows, err := cl.Query(sql)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printed := 0
		if len(rows.Columns) > 0 {
			fmt.Println(strings.Join(rows.Columns, " | "))
		}
		for {
			batch, err := rows.Next()
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			if batch == nil {
				break
			}
			for _, r := range batch {
				cells := make([]string, len(r))
				for i, v := range r {
					cells[i] = v.String()
				}
				fmt.Println(strings.Join(cells, " | "))
				printed++
			}
		}
		if len(rows.Columns) > 0 {
			fmt.Printf("(%d rows)\n", printed)
		} else if rows.RowsAffected() > 0 {
			fmt.Printf("OK, %d rows affected\n", rows.RowsAffected())
		} else if rows.Err() == nil {
			fmt.Println("OK")
		}
		if timing {
			fmt.Printf("Time: %v\n", time.Since(start))
		}
	}, func(cmd string) bool {
		switch strings.Fields(cmd)[0] {
		case "\\q", "\\quit", "\\exit":
			return false
		case "\\tables":
			tables, err := cl.Tables()
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			for _, t := range tables {
				fmt.Println(t)
			}
		case "\\stats":
			m, err := cl.Stats()
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			printStats(m)
		case "\\timing":
			timing = !timing
			fmt.Println("timing:", onOff(timing))
		default:
			fmt.Println("unknown command", strings.Fields(cmd)[0])
		}
		return true
	})
}

// printStats prints a counter snapshot as "name value" lines in name
// order: \stats, embedded and with -connect.
func printStats(m map[string]int64) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Println(name, m[name])
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// meta handles backslash commands in embedded mode; returns false to
// quit.
func meta(sess *engine.Session, ext *ivmext.Extension, cmd string) bool {
	db := sess.DB()
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit", "\\exit":
		return false
	case "\\tables":
		for _, t := range db.Catalog().TableNames() {
			fmt.Println(t)
		}
	case "\\views":
		for _, m := range db.Catalog().IVMViews() {
			fmt.Printf("%s  class=%s  bases=%s\n", m.ViewName, m.QueryType, strings.Join(m.BaseTables, ","))
		}
	case "\\scripts":
		if len(fields) < 2 {
			fmt.Println("usage: \\scripts <view>")
			break
		}
		setup, prop, err := ext.Scripts(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("-- setup --")
		fmt.Print(setup)
		fmt.Println("-- propagation --")
		fmt.Print(prop)
	case "\\stats":
		printStats(db.Metrics().Snapshot())
	case "\\load":
		if len(fields) < 2 || fields[1] != "demo" {
			fmt.Println("usage: \\load demo")
			break
		}
		script := `
CREATE TABLE groups (group_index VARCHAR, group_value INTEGER);
INSERT INTO groups VALUES ('a', 1), ('a', 2), ('b', 10), ('b', 20), ('c', 5);
CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
  SUM(group_value) AS total_value FROM groups GROUP BY group_index;`
		if _, err := sess.ExecScript(script); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("loaded Listing 1 demo: table groups + materialized view query_groups")
		fmt.Println("try: INSERT INTO groups VALUES ('a', 100); SELECT * FROM query_groups;")
	default:
		fmt.Println("unknown command", fields[0])
	}
	return true
}
