
var sink []int

// Factory: the returned buffer is a fresh heap allocation the caller
// provably drops each iteration, so the compiler frees it (§4).
func scratch(n int, fill int) []int {
  buf := make([]int, n)
  buf[0] = fill
  return buf
}

func newTab() map[int]int {
  return make(map[int]int)
}

func burn(id int, iters int) {
  acc := 0
  for i := 0; i < iters; i++ {
    buf := scratch(256, id+i)
    tab := newTab()
    for j := 0; j < 6; j++ {
      tab[j] = acc + j
    }
    acc = acc + tab[2] + buf[0]
    if i%11 == 0 {
      esc := make([]int, 1024)
      esc[0] = acc
      sink = esc
    }
  }
  println("burn", id, acc)
}

func main() {
  n := 8
  for g := 0; g < n; g++ {
    go burn(g, 120+g*60)
  }
  burn(999, 200)
  println("fanout done")
}
