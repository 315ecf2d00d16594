// Struct values: every location (a variable, a parameter, a result, a
// slice element, a map value, a pointee, a field) holds its own fields.
// A declaration, a call and a return copy them; storing a whole struct
// into a location that holds one writes the fields into that location,
// so a pointer to one of its fields taken before the store reads the
// new value, as in Go.

type P struct {
  x int
  y int
}

type W struct {
  in  P
  tag string
}

func bump(p P) P {
  p.x = p.x + 100
  return p
}

func mk(x int) P {
  return P{x: x, y: x * 2}
}

// copies on assignment, on parameter passing and on return
func copies() {
  a := P{x: 1, y: 2}
  b := a
  b.x = 9
  c := bump(a)
  c.y = 7
  d := mk(3)
  e := d
  d.y = 0
  var f P
  f = e
  e.x = 30
  println("copy", a.x, a.y, b.x, c.x, c.y, d.y, e.y, f.x)
}

// a map value, an element read, copy() of a []P and nested copies
func containers() {
  m := make(map[string]P)
  p := P{x: 4, y: 5}
  m["k"] = p
  p.x = 40
  q := m["k"]
  q.y = 50
  println("map", m["k"].x, m["k"].y, p.x, q.y)
  ps := []P{P{x: 1, y: 1}, P{x: 2, y: 2}, P{x: 3, y: 3}}
  e := ps[1]
  e.x = 20
  qs := make([]P, 2)
  n := copy(qs, ps)
  qs[0].y = 10
  println("slice", ps[1].x, e.x, n, qs[0].x, qs[0].y, ps[0].y, qs[1].x)
  k := copy(ps[1:], ps)
  println("overlap", k, ps[0].x, ps[1].x, ps[2].x)
  w := W{in: P{x: 6, y: 7}, tag: "w"}
  v := w
  v.in.x = 60
  in := w.in
  in.y = 70
  w2 := W{in: in, tag: "v"}
  in.x = 0
  println("nested", w.in.x, w.in.y, v.in.x, in.y, w2.in.x, w2.in.y, v.tag)
}

// a store through a pointer, the swaps and the self-assignments
func stores() {
  hp := &P{x: 1, y: 2}
  h := *hp
  *hp = P{x: 3, y: 4}
  println("deref", h.x, hp.x, hp.y)
  a := P{x: 1, y: 2}
  b := P{x: 3, y: 4}
  a, b = b, a
  println("swap", a.x, a.y, b.x, b.y)
  ps := []P{P{x: 5, y: 6}, P{x: 7, y: 8}}
  ps[0], ps[1] = ps[1], ps[0]
  println("swap elems", ps[0].x, ps[0].y, ps[1].x, ps[1].y)
  w := W{in: P{x: 9, y: 10}, tag: "w"}
  w.in, a = a, w.in
  println("swap field", w.in.x, w.in.y, a.x, a.y)
  a = a
  w.in = w.in
  ps[1] = ps[1]
  *hp = *hp
  println("self", a.x, a.y, w.in.x, ps[1].y, hp.x)
}

// field pointers that outlive a whole-struct store
func fieldPointers() {
  s := P{x: 1, y: 2}
  p := &s.x
  s = P{x: 10, y: 20}
  println("&s.x", *p, s.x)
  ps := []P{P{x: 1, y: 10}, P{x: 3, y: 4}}
  q := &ps[0].y
  ps[0] = P{x: 5, y: 7}
  println("&ps[0].y", *q)
  w := W{in: P{x: 0, y: 0}, tag: "w"}
  r := &w.in.x
  w.in = P{x: 4, y: 4}
  println("&w.in.x", *r, w.in.y)
  hp := &P{x: 0, y: 0}
  t := &hp.x
  *hp = P{x: 5, y: 5}
  println("&hp.x", *t, hp.y)
  *p = 11
  *q = 12
  println("through", s.x, ps[0].y)
  ds := make([]P, 1)
  dp := &ds[0].x
  copy(ds, ps)
  println("copy into", *dp)
}

func main() {
  copies()
  containers()
  stores()
  fieldPointers()
}
