
type Field struct {
  name  string
  size  int
  align int
}

type Layout struct {
  total   int
  padding int
}

var results map[string]*Layout
var fieldCache map[int][]Field

func alignUp(off int, align int) int {
  if align <= 1 {
    return off
  }
  rem := off % align
  if rem == 0 {
    return off
  }
  return off + align - rem
}

func genFields(ty int) []Field {
  n := 20 + rand(60)
  fields := make([]Field, 0, 8)
  for i := 0; i < n; i++ {
    sz := 1 + rand(16)
    al := 1
    if sz >= 8 {
      al = 8
    } else {
      if sz >= 4 {
        al = 4
      } else {
        if sz >= 2 {
          al = 2
        }
      }
    }
    fields = append(fields, Field{name: "f" + itoa(i), size: sz, align: al})
  }
  return fields
}

func layoutType(ty int) *Layout {
  // constant per-alignment counters: non-escaping, stack-allocated
  byAlign := make([]int, 4)
  fields := genFields(ty)
  fieldCache[ty] = fields
  // the offsets map grows entry by entry while laying out the struct
  offsets := make(map[string]int)
  off := 0
  pad := 0
  for i := 0; i < len(fields); i++ {
    aligned := alignUp(off, fields[i].align)
    pad += aligned - off
    offsets[fields[i].name] = aligned
    if fields[i].align >= 8 {
      byAlign[3]++
    } else {
      byAlign[fields[i].align/2]++
    }
    off = aligned + fields[i].size
  }
  check := 0
  for i := 0; i < len(fields); i++ {
    check += offsets[fields[i].name]
  }
  if check < 0 {
    panic("impossible layout")
  }
  return &Layout{total: alignUp(off, 8), padding: pad + byAlign[0]*0}
}

func main() {
  results = make(map[string]*Layout)
  fieldCache = make(map[int][]Field)
  totalPad := 0
  for ty := 0; ty < 400; ty++ {
    l := layoutType(ty)
    totalPad += l.padding
    results["type"+itoa(ty)] = l
  }
  println("types", len(results), "padding", totalPad)
}
