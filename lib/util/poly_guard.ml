let max = Stdlib.max
let min = Stdlib.min

external compare : 'a -> 'a -> int = "%compare"
