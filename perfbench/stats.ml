let rank p n = max 1 (int_of_float (Float.ceil (p *. float n /. 100.)))

let sorted xs = Array.of_list (List.sort Float.compare xs)

let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: no samples";
  if not (p > 0. && p <= 100.) then invalid_arg "Stats.percentile: p";
  let a = sorted xs in
  a.(rank p (Array.length a) - 1)

let median xs = percentile 50. xs

type tail = { pct : int; value : float; beyond : int }

let min_beyond = 10

let tail xs =
  if xs = [] then invalid_arg "Stats.tail: no samples";
  let a = sorted xs in
  let n = Array.length a in
  let at pct =
    let r = rank (float pct) n in
    { pct; value = a.(r - 1); beyond = n - r }
  in
  let rec go pct =
    let t = at pct in
    if t.beyond >= min_beyond || pct = 50 then t else go (pct - 1)
  in
  go 99
