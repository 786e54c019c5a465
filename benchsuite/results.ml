(* Result files of [suite run] and the verdicts of [suite compare]. *)

module Json = Hs_obs.Json

(* One workload's runs: per-run values of every metric it reported. *)
type workload = {
  name : string;
  attempted : int list;
  failed : int list;
  digests : string list;
  flags : string list;
  values : (string * float list) list;  (** in first-seen order *)
}

type t = {
  header : (string * Json.t) list;  (** git rev, nproc, OCaml version, settings *)
  workloads : workload list;
}

(* A lost measurement (nan) is written as null and read back as nan. *)
let number v = if Float.is_finite v then Json.Float v else Json.Null

let metric_json cat name xs =
  let a = Array.of_list xs in
  let q1, q3 = Stats.quartiles a in
  ( name,
    Json.Obj
      [
        ("unit", Json.String (Registry.unit_of cat name));
        ("values", Json.List (List.map number xs));
        ("median", number (Stats.median a));
        ("q1", number q1);
        ("q3", number q3);
      ] )

let to_json cat t =
  Json.Obj
    (t.header
    @ [
        ( "workloads",
          Json.Obj
            (List.map
               (fun w ->
                 ( w.name,
                   Json.Obj
                     [
                       ("attempted", Json.List (List.map (fun i -> Json.Int i) w.attempted));
                       ("failed", Json.List (List.map (fun i -> Json.Int i) w.failed));
                       ("digests", Json.List (List.map (fun s -> Json.String s) w.digests));
                       ("flags", Json.List (List.map (fun s -> Json.String s) w.flags));
                       ("metrics", Json.Obj (List.map (fun (k, xs) -> metric_json cat k xs) w.values));
                     ] ))
               t.workloads) );
      ])

let write cat path t =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json cat t));
  output_char oc '\n';
  close_out oc

let fail fmt = Printf.ksprintf failwith fmt

let read path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> fail "cannot read %s" e
  in
  let doc = match Json.parse text with Ok d -> d | Error e -> fail "%s: %s" path e in
  let list f = function Some (Json.List l) -> List.map f l | _ -> [] in
  let int = function Json.Int i -> i | _ -> fail "%s: expected an integer" path in
  let str = function Json.String s -> s | _ -> fail "%s: expected a string" path in
  let num = function
    | Json.Float f -> f
    | Json.Int i -> float_of_int i
    | Json.Null -> nan
    | _ -> fail "%s: expected a number" path
  in
  let workloads =
    match Json.member "workloads" doc with
    | Some (Json.Obj ws) ->
        List.map
          (fun (name, w) ->
            {
              name;
              attempted = list int (Json.member "attempted" w);
              failed = list int (Json.member "failed" w);
              digests = list str (Json.member "digests" w);
              flags = list str (Json.member "flags" w);
              values =
                (match Json.member "metrics" w with
                | Some (Json.Obj ms) ->
                    List.map (fun (k, m) -> (k, list num (Json.member "values" m))) ms
                | _ -> []);
            })
          ws
    | _ -> fail "%s: not a suite result file" path
  in
  let header = match doc with Json.Obj kv -> List.remove_assoc "workloads" kv | _ -> [] in
  { header; workloads }

(* ---- compare ----------------------------------------------------------- *)

type verdict = Better | Same | Worse | Unresolved | Info

let verdict_to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Info -> "-"

(* How much better [b] is than [a] under the metric's direction. *)
let gain (m : Registry.t) a b =
  match m.better with Registry.Lower -> a -. b | Registry.Higher -> b -. a | Registry.Exact -> 0.

let measured x = Array.length x > 0 && Array.for_all Float.is_finite x

(* A measurement B lost is a regression; one only A lost cannot be
   judged.  Beyond that, the median gap decides when both spreads lie
   within the tolerance.  When either is wider, the gap must still
   exceed the tolerance and every run of one side must beat every run
   of the other; otherwise the verdict is unresolved. *)
let judge (m : Registry.t) a b =
  match (m.kind, m.better) with
  | Registry.Layer, _ -> Info
  | _ when not (measured b) -> Worse
  | _ when not (measured a) -> Unresolved
  | _, Registry.Exact ->
      let distinct x = List.sort_uniq Float.compare (Array.to_list x) in
      if distinct a = distinct b then Same else Worse
  | Registry.End_to_end, _ ->
      let ma = Stats.median a and mb = Stats.median b in
      let tol = Float.max (m.bound *. Float.abs ma) m.floor in
      let spread x =
        let q1, q3 = Stats.quartiles x in
        q3 -. q1
      in
      (* Every run of [y] beats every run of [x]. *)
      let all_beat x y =
        Array.for_all (fun vy -> Array.for_all (fun vx -> gain m vx vy > 0.) x) y
      in
      let g = gain m ma mb in
      if spread a <= tol && spread b <= tol then
        if g < -.tol then Worse else if g > tol then Better else Same
      else if g > tol && all_beat a b then Better
      else if g < -.tol && all_beat b a then Worse
      else Unresolved

(* Pairs (run i of A, run i of B) in which B is strictly better. *)
let pairs_won (m : Registry.t) a b =
  let n = Stdlib.min (Array.length a) (Array.length b) in
  let won = ref 0 in
  for i = 0 to n - 1 do
    if gain m a.(i) b.(i) > 0. then incr won
  done;
  (!won, n)

let failed_frac w =
  let sum = List.fold_left ( + ) 0 in
  float_of_int (sum w.failed) /. float_of_int (Stdlib.max 1 (sum w.attempted))

(* Print one row per (workload, metric) of A; returns whether anything
   regressed: a worse verdict, a workload or end-to-end metric B lacks,
   a higher failed fraction, or a changed output digest. *)
let compare cat a b =
  let regressed = ref false in
  let q x =
    let q1, q3 = Stats.quartiles x in
    Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median x) q1 q3
  in
  Printf.printf "%-14s %-26s %-6s %-32s %-32s %-10s %s\n" "workload" "metric" "unit" "A median [q1, q3]"
    "B median [q1, q3]" "verdict" "B won";
  List.iter
    (fun wa ->
      match List.find_opt (fun w -> w.name = wa.name) b.workloads with
      | None ->
          regressed := true;
          Printf.printf "%-14s missing from B\n" wa.name
      | Some wb ->
          List.iter
            (fun (k, xa) ->
              match Registry.find cat k with
              | None -> ()
              | Some m ->
                  let xa = Array.of_list xa in
                  let xb = Array.of_list (Option.value ~default:[] (List.assoc_opt k wb.values)) in
                  let v = judge m xa xb in
                  if v = Worse then regressed := true;
                  let won, n = pairs_won m xa xb in
                  Printf.printf "%-14s %-26s %-6s %-32s %-32s %-10s %d/%d\n" wa.name k m.unit_ (q xa)
                    (if Array.length xb = 0 then "missing" else q xb)
                    (verdict_to_string v) won n)
            wa.values;
          if failed_frac wb > failed_frac wa then begin
            regressed := true;
            Printf.printf "%-14s failed fraction rose: %.4g -> %.4g\n" wa.name (failed_frac wa)
              (failed_frac wb)
          end;
          let digests w = List.sort_uniq String.compare w.digests in
          if digests wa <> digests wb then begin
            regressed := true;
            Printf.printf "%-14s output digest changed: %s -> %s\n" wa.name
              (String.concat "," (digests wa)) (String.concat "," (digests wb))
          end)
    a.workloads;
  !regressed
