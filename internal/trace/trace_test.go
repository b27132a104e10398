package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStrings(t *testing.T) {
	cases := map[Op]string{
		OpBegin: "begin", OpEnd: "end", OpRead: "rd", OpWrite: "wr",
		OpAcquire: "acq", OpRelease: "rel", OpFork: "fork", OpJoin: "join",
		OpYield: "yield", OpWait: "wait", OpNotify: "notify",
		OpVolRead: "vrd", OpVolWrite: "vwr", OpEnter: "enter", OpExit: "exit",
		OpAtomicBegin: "abegin", OpAtomicEnd: "aend",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
		if !op.Valid() {
			t.Errorf("Op(%d) should be valid", op)
		}
	}
	if Op(200).Valid() {
		t.Error("Op(200) should be invalid")
	}
	if !strings.Contains(Op(200).String(), "200") {
		t.Error("invalid op should render its code")
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpRead.IsAccess() || !OpWrite.IsAccess() || OpVolRead.IsAccess() {
		t.Error("IsAccess misclassifies")
	}
	if !OpVolRead.IsVolatile() || !OpVolWrite.IsVolatile() || OpRead.IsVolatile() {
		t.Error("IsVolatile misclassifies")
	}
	if !OpWrite.IsWrite() || !OpVolWrite.IsWrite() || OpRead.IsWrite() {
		t.Error("IsWrite misclassifies")
	}
	if !OpAcquire.IsLockOp() || !OpRelease.IsLockOp() || OpWait.IsLockOp() {
		t.Error("IsLockOp misclassifies")
	}
	for _, op := range []Op{OpYield, OpWait, OpBegin, OpEnd, OpJoin} {
		if !op.IsYieldPoint() {
			t.Errorf("%v should be a yield point", op)
		}
	}
	for _, op := range []Op{OpRead, OpWrite, OpAcquire, OpRelease, OpFork, OpNotify} {
		if op.IsYieldPoint() {
			t.Errorf("%v should not be a yield point", op)
		}
	}
}

func TestStringsIntern(t *testing.T) {
	s := NewStrings()
	if s.Intern("") != 0 {
		t.Fatal("empty string must be id 0")
	}
	a := s.Intern("foo.go:10")
	b := s.Intern("foo.go:20")
	if a == b {
		t.Fatal("distinct strings share an id")
	}
	if s.Intern("foo.go:10") != a {
		t.Fatal("re-interning changed the id")
	}
	if s.Name(a) != "foo.go:10" {
		t.Fatalf("Name(%d) = %q", a, s.Name(a))
	}
	if s.Name(999) != "" {
		t.Fatal("out-of-range Name should be empty")
	}
	if (*Strings)(nil).Name(1) != "" {
		t.Fatal("nil receiver Name should be empty")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

// Names registered by AppendNew, unhashed, are found by a later Intern,
// which indexes them on demand, and interleave with interned ones.
func TestStringsAppendNew(t *testing.T) {
	s := NewStrings()
	s.Grow(-1)
	s.Grow(4)
	a := s.AppendNew("foo.go:10")
	if got := s.Intern("foo.go:10"); got != a {
		t.Fatalf("Intern after AppendNew = %d, want %d", got, a)
	}
	b := s.Intern("foo.go:20")
	c := s.AppendNew("foo.go:30")
	if got := s.Intern("foo.go:30"); got != c || b == c || s.Intern("foo.go:20") != b {
		t.Fatalf("ids a=%d b=%d c=%d, Intern(foo.go:30)=%d", a, b, c, got)
	}
	if want := []string{"", "foo.go:10", "foo.go:20", "foo.go:30"}; !reflect.DeepEqual(s.All(), want) {
		t.Fatalf("All = %q, want %q", s.All(), want)
	}
}

func TestBuilderAndAccessors(t *testing.T) {
	b := NewBuilder()
	b.On(0).Begin().At("main.go:1").Write(1).Fork(1).Acq(10).Read(2).Rel(10).Join(1).End()
	b.On(1).Begin().At("w.go:5").Read(1).VolWrite(7).Yield().End()
	tr := b.Trace()

	if tr.Len() != 13 {
		t.Fatalf("Len = %d, want 13", tr.Len())
	}
	if got := tr.Threads(); got != 2 {
		t.Fatalf("Threads = %d, want 2", got)
	}
	if got := tr.Vars(); !reflect.DeepEqual(got, []uint64{1, 2, 7}) {
		t.Fatalf("Vars = %v", got)
	}
	if got := tr.Locks(); !reflect.DeepEqual(got, []uint64{10}) {
		t.Fatalf("Locks = %v", got)
	}
	if got := tr.CountOp(OpRead); got != 2 {
		t.Fatalf("CountOp(OpRead) = %d", got)
	}
	by := tr.ByThread()
	if len(by[0]) != 8 || len(by[1]) != 5 {
		t.Fatalf("ByThread sizes = %d,%d", len(by[0]), len(by[1]))
	}
	for i, e := range tr.Events {
		if e.Idx != i {
			t.Fatalf("event %d has Idx %d", i, e.Idx)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFormat(t *testing.T) {
	b := NewBuilder()
	b.Begin().At("x.go:3").Write(5).Fork(1).Yield()
	tr := b.Trace()
	if got := tr.Format(tr.Events[1]); got != "#1 T0 wr(5) @x.go:3" {
		t.Fatalf("Format write = %q", got)
	}
	if got := tr.Format(tr.Events[2]); got != "#2 T0 fork(T1) @x.go:3" {
		t.Fatalf("Format fork = %q", got)
	}
	if got := tr.Format(tr.Events[0]); got != "#0 T0 begin" {
		t.Fatalf("Format begin = %q", got)
	}
}

func TestValidateRejections(t *testing.T) {
	reject := func(name string, build func(*Builder), wantSub string) {
		t.Run(name, func(t *testing.T) {
			b := NewBuilder()
			build(b)
			err := b.Trace().Validate()
			if err == nil {
				t.Fatal("Validate accepted a bad trace")
			}
			if !strings.Contains(err.Error(), wantSub) {
				t.Fatalf("error %q does not mention %q", err, wantSub)
			}
		})
	}
	reject("act-before-begin", func(b *Builder) { b.Write(1) }, "before begin")
	reject("double-begin", func(b *Builder) { b.Begin().Begin() }, "duplicate begin")
	reject("act-after-end", func(b *Builder) { b.Begin().End().Write(1) }, "after end")
	reject("end-before-begin", func(b *Builder) { b.End() }, "end before begin")
	reject("release-unheld", func(b *Builder) { b.Begin().Rel(1) }, "unheld")
	reject("wait-without-lock", func(b *Builder) { b.Begin().Wait(1) }, "without holding")

	t.Run("bad-idx", func(t *testing.T) {
		tr := New()
		tr.Events = []Event{{Idx: 5, Op: OpBegin}}
		if tr.Validate() == nil {
			t.Fatal("Validate accepted wrong Idx")
		}
	})
	t.Run("bad-op", func(t *testing.T) {
		tr := New()
		tr.Append(Event{Op: OpBegin})
		tr.Append(Event{Op: Op(99)})
		if tr.Validate() == nil {
			t.Fatal("Validate accepted invalid op")
		}
	})
}

func TestReentrantLockValidates(t *testing.T) {
	b := NewBuilder()
	b.Begin().Acq(1).Acq(1).Rel(1).Rel(1).End()
	if err := b.Trace().Validate(); err != nil {
		t.Fatalf("reentrant locking should validate: %v", err)
	}
}

func randomTrace(r *rand.Rand) *Trace {
	b := NewBuilder()
	nthreads := 1 + r.Intn(4)
	for tid := 0; tid < nthreads; tid++ {
		b.On(TID(tid)).Begin()
	}
	locs := []string{"", "a.go:1", "b.go:2", "c.go:33"}
	for i := 0; i < 5+r.Intn(60); i++ {
		tid := TID(r.Intn(nthreads))
		b.On(tid).At(locs[r.Intn(len(locs))])
		switch r.Intn(6) {
		case 0:
			b.Read(uint64(r.Intn(5)))
		case 1:
			b.Write(uint64(r.Intn(5)))
		case 2:
			b.Yield()
		case 3:
			b.VolRead(uint64(100 + r.Intn(2)))
		case 4:
			b.Enter(uint64(r.Intn(3)))
		case 5:
			b.Notify(uint64(50))
		}
	}
	for tid := 0; tid < nthreads; tid++ {
		b.On(TID(tid)).End()
	}
	tr := b.Trace()
	tr.Meta = Meta{Workload: "rand", Strategy: "test", Seed: r.Int63(), Threads: nthreads}
	return tr
}

func TestPropSerializationRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r)
		var buf bytes.Buffer
		n, err := tr.WriteTo(&buf)
		if err != nil {
			t.Logf("WriteTo: %v", err)
			return false
		}
		if n != int64(buf.Len()) {
			t.Logf("WriteTo count %d != buffer %d", n, buf.Len())
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			t.Logf("Read: %v", err)
			return false
		}
		if got.Meta != tr.Meta {
			t.Logf("meta %+v != %+v", got.Meta, tr.Meta)
			return false
		}
		if !reflect.DeepEqual(got.Events, tr.Events) {
			return false
		}
		return reflect.DeepEqual(got.Strings.All(), tr.Strings.All())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Fatal("Read accepted bad magic")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("Read accepted empty input")
	}
	// Truncated after magic.
	if _, err := Read(bytes.NewReader([]byte(traceMagic))); err == nil {
		t.Fatal("Read accepted truncated input")
	}
	// Bad version.
	var buf bytes.Buffer
	buf.WriteString(traceMagic)
	buf.WriteByte(99)
	if _, err := Read(&buf); err == nil {
		t.Fatal("Read accepted bad version")
	}
}

func TestReadRejectsTruncatedEvents(t *testing.T) {
	b := NewBuilder()
	b.Begin().Write(1).End()
	var buf bytes.Buffer
	if _, err := b.Trace().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 5; cut < len(data)-1; cut += 3 {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("Read accepted input truncated to %d bytes", cut)
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Append(Event{Tid: 1, Op: OpRead, Target: 42})
	}
}

func BenchmarkSerialize1k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := randomTrace(r)
	for tr.Len() < 1000 {
		tr.Append(Event{Tid: 0, Op: OpRead, Target: uint64(tr.Len() % 7)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFilter(t *testing.T) {
	b := NewBuilder()
	b.On(0).Begin().Write(1).Acq(10).Read(1).Rel(10).End()
	b.On(1).Begin().Write(2).End()
	tr := b.Trace()

	all := tr.Filter(FilterOptions{Tid: -1})
	if all.Len() != tr.Len() {
		t.Fatalf("no-constraint filter dropped events: %d != %d", all.Len(), tr.Len())
	}
	t0 := tr.Filter(FilterOptions{Tid: 0})
	if t0.Len() != 6 {
		t.Fatalf("tid filter = %d events", t0.Len())
	}
	writes := tr.Filter(FilterOptions{Tid: -1, Ops: []Op{OpWrite}})
	if writes.Len() != 2 {
		t.Fatalf("op filter = %d events", writes.Len())
	}
	var1 := tr.Filter(FilterOptions{Tid: -1, Target: 1, TargetSet: true, Ops: []Op{OpRead, OpWrite}})
	if var1.Len() != 2 {
		t.Fatalf("target filter = %d events", var1.Len())
	}
	ranged := tr.Filter(FilterOptions{Tid: -1, From: 1, To: 3})
	if ranged.Len() != 2 || ranged.Events[0].Idx != 1 {
		t.Fatalf("range filter = %v", ranged.Events)
	}
	// Original indices are preserved for cross-referencing.
	if writes.Events[0].Idx == 0 && writes.Events[1].Idx == 0 {
		t.Fatal("filtered events lost their original indices")
	}
	// Out-of-range bounds are clamped.
	clamped := tr.Filter(FilterOptions{Tid: -1, From: -5, To: 10000})
	if clamped.Len() != tr.Len() {
		t.Fatal("bound clamping broken")
	}
}

func TestOpByName(t *testing.T) {
	for o := Op(0); o.Valid(); o++ {
		got, ok := OpByName(o.String())
		if !ok || got != o {
			t.Fatalf("OpByName(%q) = %v,%v", o.String(), got, ok)
		}
	}
	if _, ok := OpByName("nonsense"); ok {
		t.Fatal("OpByName accepted nonsense")
	}
}

func TestSwimlanes(t *testing.T) {
	b := NewBuilder()
	b.On(0).Begin().Fork(1).Write(1)
	b.On(1).Begin().Read(1).End()
	b.On(0).Join(1).End()
	tr := b.Trace()
	out := tr.Swimlanes(nil, 0)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+tr.Len() {
		t.Fatalf("lines = %d, want %d:\n%s", len(lines), 1+tr.Len(), out)
	}
	if !strings.Contains(lines[0], "T0") || !strings.Contains(lines[0], "T1") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	// T1's read appears in the second column: the line must contain a dot
	// in T0's lane first.
	for _, l := range lines[1:] {
		if strings.Contains(l, "rd(1)") && !strings.Contains(l, ".") {
			t.Fatalf("lane placement wrong: %q", l)
		}
	}
	// Custom resolver.
	out = tr.Swimlanes(func(e Event) string { return "X" }, 0)
	if !strings.Contains(out, "X") {
		t.Fatal("resolver ignored")
	}
	// Truncation.
	out = tr.Swimlanes(nil, 3)
	if !strings.Contains(out, "more events") {
		t.Fatalf("truncation note missing:\n%s", out)
	}
	// Empty trace.
	if got := New().Swimlanes(nil, 0); !strings.Contains(got, "empty") {
		t.Fatalf("empty = %q", got)
	}
}
