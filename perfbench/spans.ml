module Trace = Hidet_obs.Trace

type agg = { count : int; total_us : float; self_us : float }

type node = {
  name : string;
  layer : string;
  ts : float;
  dur : float;
  mutable covered : float;
}

type t = node list

let of_events events =
  let nodes =
    List.filter_map
      (function
        | Trace.Span { name; track; ts_us; dur_us; attrs } -> (
          match List.assoc_opt "layer" attrs with
          | Some layer ->
            Some (track, { name; layer; ts = ts_us; dur = dur_us; covered = 0. })
          | None -> None)
        | _ -> None)
      events
  in
  (* Events arrive sorted by start, parents before children; a stack of
     open spans per track finds each span's direct parent. *)
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (track, n) ->
      let stack = Option.value (Hashtbl.find_opt stacks track) ~default:[] in
      let rec pop = function
        | p :: rest when p.ts +. p.dur < n.ts +. n.dur -. 1e-3 -> pop rest
        | s -> s
      in
      let stack = pop stack in
      (match stack with p :: _ -> p.covered <- p.covered +. n.dur | [] -> ());
      Hashtbl.replace stacks track (n :: stack))
    nodes;
  List.map snd nodes

let fold pred t =
  List.fold_left
    (fun a n ->
      if pred n then
        {
          count = a.count + 1;
          total_us = a.total_us +. n.dur;
          self_us = a.self_us +. Float.max 0. (n.dur -. n.covered);
        }
      else a)
    { count = 0; total_us = 0.; self_us = 0. }
    t

let by_name t name = fold (fun n -> n.name = name) t
let layer_self_us t layer = (fold (fun n -> n.layer = layer) t).self_us

let unattributed_frac t prefix =
  let a = fold (fun n -> String.starts_with ~prefix n.name) t in
  if a.total_us > 0. then a.self_us /. a.total_us else 0.
