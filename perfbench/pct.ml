(* Percentile reporting rule: a timing is reported as its median plus
   the highest percentile of a fixed ladder that still has at least
   [min_beyond] samples above it, together with the sample count. *)

(* Percentiles in tenths of a percent, highest first. *)
let ladder = [ 999; 990; 950; 900; 750; 500 ]

let min_beyond = 10

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* [p] in percent, linear interpolation between closest ranks. *)
let percentile a p = Pdf_obs.Bstat.quantile (sorted a) (p /. 100.)

let median a = percentile a 50.

(* Samples of [n] that rank strictly beyond the [k]-per-mille
   percentile. *)
let beyond ~n k = n - (((n * k) + 999) / 1000)

type tail = { per_mille : int; value : float; samples : int }

let tail a =
  let n = Array.length a in
  List.find_opt (fun k -> beyond ~n k >= min_beyond) ladder
  |> Option.map (fun k ->
         { per_mille = k; value = percentile a (float k /. 10.); samples = n })

let tail_label t =
  if t.per_mille mod 10 = 0 then Printf.sprintf "p%d" (t.per_mille / 10)
  else Printf.sprintf "p%.1f" (float t.per_mille /. 10.)

(* "p50 1.23 / p99 4.56 (n=1234)" in the given scale, for the human
   report on stderr. *)
let describe ?(scale = 1.) a =
  if Array.length a = 0 then "n=0"
  else
    match tail a with
    | Some t ->
      Printf.sprintf "p50 %.3f / %s %.3f (n=%d)" (scale *. median a)
        (tail_label t) (scale *. t.value) t.samples
    | None ->
      Printf.sprintf "p50 %.3f (n=%d, no tail percentile)" (scale *. median a)
        (Array.length a)
