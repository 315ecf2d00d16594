
type Page struct {
  title  string
  words  int
  tokens []int
  html   []int
}

var siteIndex map[string]*Page
var searchIndex map[int]int

// Per-page shortcode attributes, built by a factory so the caller owns
// and explicitly frees them.
func newAttrs(id int) map[string]int {
  attrs := make(map[string]int)
  attrs["id"] = id
  attrs["layout"] = rand(4)
  attrs["weight"] = rand(100)
  for p := 0; p < 8; p++ {
    attrs["param"+itoa(p)] = id + p
  }
  return attrs
}

type LineState struct {
  col  int
  bold bool
}

// Tokenize one line into a scratch buffer of word lengths.
func tokenize(lineLen int, seed int) []int {
  // constant-size, non-escaping: stack-allocated by Go
  widths := make([]int, 4)
  st := &LineState{col: 0, bold: false}
  tokens := make([]int, 0, 16)
  cur := 0
  for i := 0; i < lineLen; i++ {
    st.col = i
    if (seed+i) % 7 == 0 {
      if cur > 0 {
        widths[cur%4] = cur
        tokens = append(tokens, cur+widths[0]*0)
        cur = 0
      }
    } else {
      cur++
    }
  }
  if cur > 0 {
    tokens = append(tokens, cur)
  }
  return tokens
}

func renderPage(id int) *Page {
  attrs := newAttrs(id)
  words := 0
  // the page keeps its full token stream for the search index
  kept := make([]int, 0, 64)
  lines := 20 + rand(30)
  for l := 0; l < lines; l++ {
    scratch := tokenize(40+rand(60), id+l)
    words += len(scratch)
    for t := 0; t < len(scratch); t++ {
      kept = append(kept, scratch[t])
    }
  }
  if attrs["layout"] > 0 {
    words += attrs["weight"]
  }
  // the rendered page body is retained with the page
  html := make([]int, len(kept)*10+16)
  for h := 0; h < len(html); h++ {
    html[h] = id + h
  }
  return &Page{title: "page" + itoa(id), words: words, tokens: kept, html: html}
}

func main() {
  siteIndex = make(map[string]*Page)
  searchIndex = make(map[int]int)
  totalWords := 0
  for id := 0; id < 110; id++ {
    p := renderPage(id)
    totalWords += p.words
    siteIndex[p.title] = p
    for t := 0; t < len(p.tokens); t = t + 6 {
      searchIndex[id*4096+t] = p.tokens[t]
    }
  }
  println("pages", len(siteIndex), "words", totalWords)
}
