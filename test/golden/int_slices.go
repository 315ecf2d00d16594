// []int values, whose backing stores hold unboxed ints: every way a
// program makes, grows, views, copies, points into and hands around
// one, next to the value-store slices ([]string, []P, []*P, [][]int)
// that keep their boxed representation.

type P struct {
  x int
  tag string
}

var done []int

// make, a literal and append growth, with negative ints and ints
// outside the small-int range
func build(n int) []int {
  s := make([]int, 2, 3)
  s[0] = -7
  s[1] = 1 << 40
  for i := 0; i < n; i++ {
    s = append(s, i*4099-5000)
  }
  lit := []int{3, -1, 1024, 5000000000}
  s = append(s, lit[1], lit[2])
  return s
}

// the spare capacity an append growth leaves holds the element's zeros,
// for int, string, struct and pointer elements
func tails() {
  s := make([]int, 0, 1)
  s = append(s, 7)
  s = append(s, 8)
  t := s[0:cap(s)]
  println("int tail", t[2]+1, len(t), cap(t))
  var ss []string
  ss = append(ss, "z")
  us := ss[0:cap(ss)]
  println("string tail", len(us), us[3] == "")
  ps := make([]P, 0, 1)
  ps = append(ps, P{x: 1, tag: "a"})
  ps = append(ps, P{x: 2, tag: "b"})
  qs := ps[1:cap(ps)]
  qs[1].x = 5
  println("struct tail", qs[0].x, qs[1].x, qs[2].x, qs[2].tag == "", len(qs))
  var pp []*P
  pp = append(pp, &ps[0])
  vv := pp[1:cap(pp)]
  println("pointer tail", vv[0] == nil, pp[0].x)
  // growth copies struct elements: the old store keeps its own
  gs := make([]P, 1, 1)
  gt := append(gs, P{x: 1, tag: "g"})
  gt[0].x = 5
  println("struct growth", gs[0].x, gt[0].x)
}

// copy with overlapping views of one store, and sub-slices that share it
func views() {
  s := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
  n := copy(s[2:], s[0:6])
  println("copy right", n, s)
  m := copy(s[0:5], s[3:])
  println("copy left", m, s)
  a := s[2:5]
  b := a[1:cap(a)]
  b[0] = -100
  a[2] = 5000
  println("shared", s[3], s[4], len(b), cap(b), b[1])
  c := a[0:0]
  c = append(c, 42)
  println("append in place", s[2], len(c), cap(c))
  var empty []int
  println("copy nil", copy(s, empty), copy(empty, s))
}

// pointers to int elements: reads and writes alias the store
func pointers() {
  s := make([]int, 4)
  p := &s[1]
  *p = 2048
  q := &s[1]
  *q = *q + 1
  sub := s[1:3]
  r := &sub[0]
  println("ptr", s[1], *p, *r, p == q, p == r, p == &s[2])
  s = append(s, 9)
  s[1] = -3
  println("after growth", *p, s[1])
}

// range over a []int, and a nil []int
func ranges() {
  xs := []int{5, -6, 7000}
  total := 0
  for i := range xs {
    total += xs[i] * (i + 1)
  }
  var none []int
  for i := range none {
    total += i
  }
  println("range", total, len(none), cap(none), none == nil)
  none = append(none, 1, 2, 3)
  println("nil grown", none, len(none), cap(none), none != nil)
  println("reslice nil", len(none[0:0]))
}

// [][]int and map[string][]int: the outer stores hold []int headers
func nested() {
  grid := make([][]int, 3)
  for i := 0; i < len(grid); i++ {
    row := make([]int, i+2)
    for j := 0; j < len(row); j++ {
      row[j] = (i + 1) * (j - 1) * 1500
    }
    grid[i] = row
  }
  grid[1][2] = grid[2][3] + 1
  grid = append(grid, []int{-1, -2})
  m := make(map[string][]int)
  m["a"] = grid[0]
  m["b"] = append(m["b"], 11, 1200)
  m["a"][0] = 77
  println("grid", grid, len(grid))
  println("map", m["a"], m["b"], len(m["missing"]))
}

// a []int handed to goroutines: each fills its own part and sets only
// its own done slot
func fill(part []int, id int) {
  for i := 0; i < len(part); i++ {
    part[i] = id*10000 + i*1031
  }
  done[id] = part[len(part)-1]
}

func workers() {
  done = make([]int, 3)
  data := make([]int, 12)
  for g := 0; g < 3; g++ {
    go fill(data[g*4:g*4+4], g)
  }
  spin := 0
  for k := 0; k < 3000; k++ {
    spin += k % 7
  }
  // then wait for every worker: each slot is non-zero once it is done
  waiting := true
  for waiting {
    waiting = false
    for i := 0; i < 3; i++ {
      if done[i] == 0 {
        waiting = true
      }
    }
  }
  println("workers", spin, data, done[0], done[1], done[2])
}

// short-lived []int scratch: GoFree frees it at scope exit
func churn(rounds int) int {
  acc := 0
  for r := 0; r < rounds; r++ {
    tmp := make([]int, 32+r%5)
    for i := 0; i < len(tmp); i++ {
      tmp[i] = r*4096 + i
    }
    acc += tmp[len(tmp)-1] % 1000
  }
  return acc
}

func main() {
  s := build(6)
  println("build", s, len(s), cap(s))
  tails()
  views()
  pointers()
  ranges()
  nested()
  workers()
  println("churn", churn(600))
}
