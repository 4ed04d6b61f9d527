(* Unit tests for the benchmark's statistics helpers and its metric
   list: BENCHMARK.json's metrics against the catalog's clocks. *)

open Perfbench

let floats = Alcotest.(float 0.)

let test_median () =
  Alcotest.check floats "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  (* Nearest rank: the lower middle sample, never an average. *)
  Alcotest.check floats "even" 2. (Stats.median [ 4.; 1.; 2.; 3. ]);
  Alcotest.check floats "single" 7. (Stats.median [ 7. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.median []))

let test_percentile () =
  let xs = List.init 100 (fun i -> float (i + 1)) in
  Alcotest.check floats "p90" 90. (Stats.percentile 90. xs);
  Alcotest.check floats "p100" 100. (Stats.percentile 100. xs);
  Alcotest.check floats "p1" 1. (Stats.percentile 1. xs)

let tail = Alcotest.(triple int (float 0.) int)
let as_triple t = Stats.(t.pct, t.value, t.beyond)

let test_tail () =
  let xs n = List.init n (fun i -> float (i + 1)) in
  (* 100 samples: p90 has exactly 10 beyond it, p91 only 9. *)
  Alcotest.check tail "100" (90, 90., 10) (as_triple (Stats.tail (xs 100)));
  (* 20 samples: only the median leaves 10 beyond. *)
  Alcotest.check tail "20" (50, 10., 10) (as_triple (Stats.tail (xs 20)));
  (* Fewer: the median, with the count beyond it stated. *)
  Alcotest.check tail "19" (50, 10., 9) (as_triple (Stats.tail (xs 19)));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.tail: no samples")
    (fun () -> ignore (Stats.tail []))

let made_of extra s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | c -> String.contains extra c)
       s

let valid_name = made_of ""
let valid_unit = made_of "/%"

let timeish = [ "s"; "ms"; "us"; "1/s" ]

(* Every metric BENCHMARK.json lists has a valid name and unit and a
   catalog entry that states its clock, and the catalog lists nothing else. *)
let test_catalog () =
  let listed = Catalog.listed Catalog.End_to_end @ Catalog.listed Catalog.Per_layer in
  let names = List.map (fun (l : Catalog.listed) -> l.lname) listed in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check (list string)) "catalog names"
    (List.sort compare (List.map (fun (m : Catalog.t) -> m.name) Catalog.all))
    (List.sort compare names);
  List.iter
    (fun (l : Catalog.listed) ->
      if not (valid_name l.lname && String.length l.lname <= 64) then
        Alcotest.failf "bad metric name %S" l.lname;
      if not (valid_unit l.unit_ && String.length l.unit_ <= 16) then
        Alcotest.failf "%s: bad unit %S" l.lname l.unit_;
      let m = Option.get (Catalog.find l.lname) in
      (* Every time or rate states its clock; modeled and virtual
         quantities carry their clock in the unit as well. *)
      (match m.clock with
      | Catalog.Wall ->
        if not (List.mem l.unit_ ("frac" :: timeish)) then
          Alcotest.failf "%s: wall-clock metric in %S" l.lname l.unit_
      | Catalog.Modeled ->
        if l.unit_ <> "modeled_us" then Alcotest.failf "%s: modeled unit" l.lname
      | Catalog.Virtual ->
        if l.unit_ <> "virtual_ms" then Alcotest.failf "%s: virtual unit" l.lname
      | Catalog.Unclocked ->
        if List.mem l.unit_ timeish then
          Alcotest.failf "%s: a time without a clock" l.lname);
      if m.guard && m.clock = Catalog.Wall then
        Alcotest.failf "%s: a wall time cannot be a guard" l.lname)
    listed

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail" `Quick test_tail;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "names, units, clocks" `Quick test_catalog;
        ] );
    ]
