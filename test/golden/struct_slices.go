// Slices of structs, whose backing store is one flat array of field
// slots: pointers to elements and fields across an append, growth that
// leaves the old store as it was, whole-element stores through a
// pointer, field stores through an explicit dereference, copy() and
// range by value, reslicing into spare capacity, nested-struct
// elements, and element types the collector scans (a pointer and a
// slice per element) next to ones it never scans.

type Pt struct {
  x int
  y int
}

type Rec struct {
  name string
  at   Pt
  ok   bool
}

type Word struct {
  text string
  pos  int
  n    int
}

type Node struct {
  val  int
  next *Node
  tags []int
}

// element and field pointers kept across an in-place append
func pointers() {
  s := make([]Pt, 2, 8)
  s[0] = Pt{x: 1, y: 2}
  pe := &s[0]
  pf := &s[1].y
  s = append(s, Pt{x: 3, y: 4})
  pe.x = 10
  *pf = 20
  s = append(s, Pt{x: 5, y: 6})
  println("in place", s[0].x, s[1].y, pe.y, *pf, len(s), cap(s))
  q := &s[2]
  q.y = q.y + 100
  println("elem ptr", s[2].x, s[2].y, q.x)
}

// growth copies into a new store; the old one stays as it was
func growth() {
  a := make([]Pt, 1, 1)
  a[0] = Pt{x: 1, y: 1}
  old := a
  p := &a[0]
  a = append(a, Pt{x: 2, y: 2})
  a[0].x = 100
  p.y = 50
  println("growth", old[0].x, old[0].y, a[0].x, a[0].y, len(a), cap(a), cap(old))
  b := a[:1]
  b = append(b, Pt{x: 7, y: 7})
  println("shared", a[1].x, b[1].x)
  c := []Pt{}
  for i := 0; i < 9; i++ {
    c = append(c, Pt{x: i, y: i * i})
  }
  sum := 0
  for i := range c {
    sum = sum + c[i].x + c[i].y
  }
  println("grown", len(c), cap(c), sum, c[8].y)
}

// whole-element stores through a pointer
func wholeStores() {
  s := []Pt{Pt{x: 1, y: 2}, Pt{x: 3, y: 4}}
  p := &s[1]
  fy := &s[1].y
  *p = Pt{x: 30, y: 40}
  println("store thru", s[1].x, s[1].y, *fy)
  v := *p
  v.x = 99
  println("deref copy", v.x, s[1].x)
  *p = s[0]
  s[0].x = 5
  println("elem to elem", s[1].x, s[1].y, s[0].x)
  s[0] = s[0]
  *p = *p
  println("self", s[0].x, s[1].y, p.y)
}

// field stores through an explicit dereference of an element pointer
func derefFields() {
  ps := []Pt{Pt{x: 1, y: 2}, Pt{x: 3, y: 4}}
  p := &ps[1]
  (*p).x = 5
  (*p).y++
  fx := &(*p).x
  *fx = *fx + 1
  println("deref field", ps[1].x, ps[1].y, (*p).x, p.y)
  rs := make([]Rec, 2)
  r := &rs[0]
  (*r).at.y = 6
  (*r).name = "d"
  (*r).at.x += 2
  ay := &(*r).at.y
  *ay = *ay * 7
  println("deref nested", rs[0].at.y, rs[0].name, rs[0].at.x, (*r).at.y, (*r).ok)
}

// copy() and range by value: the copies are values, not aliases
func copies() {
  src := []Pt{Pt{x: 1, y: 1}, Pt{x: 2, y: 2}, Pt{x: 3, y: 3}}
  dst := make([]Pt, 2)
  n := copy(dst, src)
  dst[0].x = 100
  println("copy", n, dst[0].x, src[0].x, dst[1].y)
  m := copy(src[1:], src)
  println("overlap", m, src[0].x, src[1].x, src[2].x)
  total := 0
  for i := range src {
    e := src[i]
    e.x = e.x * 10
    total = total + e.x
  }
  println("range", total, src[0].x, src[2].x)
  println("print", src, dst)
}

// reslicing into spare capacity reads zero elements
func spare() {
  s := make([]Rec, 1, 4)
  s[0] = Rec{name: "a", at: Pt{x: 1, y: 1}, ok: true}
  t := s[:3]
  println("spare", len(t), t[1].name == "", t[2].at.x, t[2].ok)
  t[2].at.y = 9
  u := append(s, Rec{name: "b", at: Pt{x: 2, y: 2}, ok: true})
  println("overwritten", u[1].name, t[1].at.x, t[2].at.y)
  g := append(s[:1], Rec{name: "c"}, Rec{name: "d"}, Rec{name: "e"}, Rec{name: "f"})
  h := g[:cap(g)]
  println("grown zeros", len(g), cap(g), g[4].name, h[5].at.y, h[7].ok, h[6].name == "")
  println("print", g[1:3])
}

// nested-struct elements: the nested struct is a value in its slot
func nested() {
  rs := make([]Rec, 0, 2)
  rs = append(rs, Rec{name: "r0", at: Pt{x: 1, y: 2}, ok: true})
  rs = append(rs, Rec{name: "r1", at: Pt{x: 3, y: 4}, ok: false})
  at := &rs[0].at
  ax := &rs[0].at.x
  rs[0].at = Pt{x: 7, y: 8}
  println("nested", at.x, *ax, rs[0].at.y)
  rs = append(rs, Rec{name: "r2"})
  at.y = 80
  println("after growth", rs[0].at.y, at.y, rs[2].name, rs[2].at.x)
  in := rs[1].at
  in.x = 30
  rs[1].at.y = 40
  println("nested copy", in.x, in.y, rs[1].at.x, rs[1].at.y)
}

// element types the collector scans: a pointer and a slice per element
func scanned() {
  ns := make([]Node, 0, 1)
  var head *Node
  for i := 0; i < 40; i++ {
    ns = append(ns, Node{val: i, next: head, tags: make([]int, i%3+1)})
    head = &ns[len(ns)-1]
  }
  sum := 0
  for p := head; p != nil; p = p.next {
    sum = sum + p.val + len(p.tags)
  }
  println("scanned", len(ns), sum, ns[39].next.val, len(ns[20].tags))
}

// the fused field forms of a local pointer, into a flat store: a field
// against another's length, a byte of one at another, an increment
func fieldForms() {
  ws := make([]Word, 2)
  ws[1] = Word{text: "hello", pos: 1, n: 0}
  w := &ws[1]
  for w.pos < len(w.text) {
    if w.text[w.pos] == 108 {
      w.n = w.n + 1
    }
    w.pos = w.pos + 1
  }
  println("field forms", w.n, ws[1].pos, len(w.text), ws[0].pos, w.text)
}

func main() {
  pointers()
  growth()
  wholeStores()
  derefFields()
  copies()
  spare()
  nested()
  scanned()
  fieldForms()
}
