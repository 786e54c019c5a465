(* The repository benchmark.

     suite.exe run     [--seed 1] [--runs 3] [--seconds S] [--out results.json]
     suite.exe trace   [--seed 1] [--out trace/]
     suite.exe compare A.json B.json
     suite.exe workload --workload W --seed N --seconds S --trace 0|1
     suite.exe smoke
     suite.exe kernel

   Every command but kernel takes --bench FILE, the BENCHMARK.json that defines the
   workloads, the run length and the shared metrics (default: the one in
   the current directory).  --size toy, --hsched PATH, --full 1 and
   --trace-out FILE are what run, trace and smoke pass down to their
   children.

   [run] measures every workload in its own child process (so set-up
   time and peak memory stay per workload), rotating the workload order
   from run to run, and reports each metric's median and quartiles.
   [trace] runs each workload untraced and then with spans on, and
   writes one Chrome trace per workload plus layers.json, the per-layer
   split.  [workload] is one child run; without --full it prints the
   one-line result of the BENCHMARK.json contract: its end-to-end
   metrics (--trace 0) or its per-layer metrics (--trace 1), the
   end-to-end timings scaled to the host's usual speed.  [kernel] times
   the speed kernel once and prints its seconds; each workload runs it
   as a child (see Work.speed).  Every input derives from --seed; seed 1 is the baseline seed and seed 2 is
   held out for claims. *)

module Json = Hs_obs.Json

let workloads =
  [
    ("certify-batch", Certify_batch.run);
    ("online-growth", Online.run Online.Growth);
    ("online-churn", Online.run Online.Churn);
    ("service-mixed", Service_mixed.run);
  ]

let names = List.map fst workloads

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("suite: " ^ s);
      exit 2)
    fmt

(* [--key value] options after the subcommand, plus positionals. *)
let parse args =
  let rec go opts pos = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: opts) pos rest
    | [ k ] when String.length k > 2 && String.sub k 0 2 = "--" -> die "%s needs a value" k
    | p :: rest -> go opts (p :: pos) rest
    | [] -> (opts, List.rev pos)
  in
  go [] [] args

let opt opts k ~default conv =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> ( match conv v with Some x -> x | None -> die "bad value %S for --%s" v k)

let size_of = function "full" -> Some Work.Full | "toy" -> Some Work.Toy | _ -> None
let flag_of = function "0" -> Some false | "1" -> Some true | _ -> None

let default_hsched () =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/hsched.exe"

let bench_path opts = opt opts "bench" ~default:"BENCHMARK.json" Option.some

let catalogue opts =
  try Registry.load (bench_path opts) with Failure e -> die "%s" e

(* ---- one workload, in this process ------------------------------------- *)

(* A metric with no samples (every op of its kind failed) is null, so
   the line stays valid JSON. *)
let metric_obj cat (name, v) =
  let value = if Float.is_finite v then Json.Float v else Json.Null in
  (name, Json.Obj [ ("value", value); ("unit", Json.String (Registry.unit_of cat name)) ])

(* End-to-end timings read as at the host's usual speed (see
   Work.speed); per-layer ones stay as measured, beside
   machine.slowdown, which undoes the scaling. *)
let scaled cat slowdown (name, v) =
  match Registry.find cat name with
  | Some { Registry.kind = End_to_end; unit_ = "s" | "ms"; _ } -> (name, v /. slowdown)
  | Some { Registry.kind = End_to_end; unit_ = "1/s"; _ } -> (name, v *. slowdown)
  | _ -> (name, v)

let workload_cmd opts =
  let cat = catalogue opts in
  let name = opt opts "workload" ~default:"" Option.some in
  let run =
    match List.assoc_opt name workloads with
    | Some f -> f
    | None -> die "unknown workload %S (one of: %s)" name (String.concat ", " names)
  in
  let traced = opt opts "trace" ~default:false flag_of in
  let hsched = opt opts "hsched" ~default:(default_hsched ()) Option.some in
  if name = "service-mixed" && not (Sys.file_exists hsched) then
    die "%s not found; build it first (dune build bin/hsched.exe)" hsched;
  let ctx =
    {
      Work.seed = opt opts "seed" ~default:1 int_of_string_opt;
      seconds = opt opts "seconds" ~default:cat.run_seconds float_of_string_opt;
      size = opt opts "size" ~default:Work.Full size_of;
      traced;
      hsched;
      trace_out = List.assoc_opt "trace-out" opts;
    }
  in
  let r = run ctx in
  List.iter (fun f -> prerr_endline ("suite: " ^ name ^ ": " ^ f)) r.Work.flags;
  let r =
    {
      r with
      Work.metrics =
        List.map (scaled cat r.Work.slowdown) r.Work.metrics @ [ ("machine.slowdown", r.Work.slowdown) ];
    }
  in
  let full = opt opts "full" ~default:false flag_of in
  let head =
    [
      ("correct", Json.Bool (r.Work.failed = 0));
      ("attempted", Json.Int r.Work.attempted);
      ("failed", Json.Int r.Work.failed);
    ]
  in
  let line =
    if full then
      Json.Obj
        (head
        @ [
            ("digest", Json.String r.Work.digest);
            ("ratio_mean", Json.Float r.Work.ratio_mean);
            ("flags", Json.List (List.map (fun f -> Json.String f) r.Work.flags));
            ("metrics", Json.Obj (List.map (metric_obj cat) r.Work.metrics));
          ])
    else
      let listed = if traced then cat.per_layer else cat.end_to_end in
      let pick (m : Registry.t) =
        match List.assoc_opt m.name r.Work.metrics with
        | Some v -> (m.name, v)
        | None -> die "%s did not report %s" name m.name
      in
      Json.Obj (head @ [ ("metrics", Json.Obj (List.map (fun m -> metric_obj cat (pick m)) listed)) ])
  in
  print_endline (Json.to_string line)

(* ---- child processes ---------------------------------------------------- *)

type child = {
  c_correct : bool;
  c_attempted : int;
  c_failed : int;
  c_digest : string;
  c_flags : string list;
  c_metrics : (string * float) list;  (** failed_frac and ratio_mean included *)
}

let child ~bench ~hsched ~seed ~seconds ~size ~traced ?trace_out name =
  let exe = Sys.executable_name in
  let args =
    [ exe; "workload"; "--workload"; name; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0"); "--size";
      (match size with Work.Full -> "full" | Work.Toy -> "toy"); "--hsched"; hsched; "--bench";
      bench; "--full"; "1" ]
    @ match trace_out with Some f -> [ "--trace-out"; f ] | None -> []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "workload %s failed" name));
  let last =
    match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
    | l :: _ -> l
    | [] -> failwith (Printf.sprintf "workload %s printed no result" name)
  in
  let doc = match Json.parse last with Ok d -> d | Error e -> failwith ("bad result line: " ^ e) in
  let get k = Json.member k doc in
  let num = function Some (Json.Float f) -> f | Some (Json.Int i) -> float_of_int i | _ -> nan in
  let int = function Some (Json.Int i) -> i | _ -> 0 in
  let attempted = int (get "attempted") and failed = int (get "failed") in
  {
    c_correct = get "correct" = Some (Json.Bool true);
    c_attempted = attempted;
    c_failed = failed;
    c_digest = (match get "digest" with Some (Json.String s) -> s | _ -> "");
    c_flags =
      (match get "flags" with
      | Some (Json.List l) -> List.filter_map (function Json.String s -> Some s | _ -> None) l
      | _ -> []);
    c_metrics =
      (match get "metrics" with
      | Some (Json.Obj ms) -> List.map (fun (k, m) -> (k, num (Json.member "value" m))) ms
      | _ -> [])
      @ [
          ("failed_frac", float_of_int failed /. float_of_int (Stdlib.max 1 attempted));
          ("ratio_mean", num (get "ratio_mean"));
        ];
  }

(* The checked-out revision, read from .git without running git. *)
let git_rev () =
  let read f = try String.trim (In_channel.with_open_bin f In_channel.input_all) with Sys_error _ -> "" in
  match read ".git/HEAD" with
  | "" -> "unknown"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
      let r = String.sub head 5 (String.length head - 5) in
      let direct = read (Filename.concat ".git" r) in
      if direct <> "" then direct
      else
        let packed = read ".git/packed-refs" in
        List.fold_left
          (fun acc line ->
            match String.split_on_char ' ' line with
            | [ sha; name ] when name = r -> sha
            | _ -> acc)
          "unknown" (String.split_on_char '\n' packed)
  | sha -> sha

let print_metrics cat name metrics =
  List.iter
    (fun (k, v) -> Printf.printf "  %-14s %-28s %14.6g %s\n" name k v (Registry.unit_of cat k))
    metrics

(* ---- run ---------------------------------------------------------------- *)

let run ~bench ~cat ~hsched ~seed ~runs ~seconds ~size =
  let rotate k l =
    let k = k mod List.length l in
    List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l
  in
  let per = Hashtbl.create 8 in
  for r = 0 to runs - 1 do
    List.iter
      (fun name ->
        Printf.printf "run %d/%d %s\n%!" (r + 1) runs name;
        let c = child ~bench ~hsched ~seed ~seconds ~size ~traced:false name in
        print_metrics cat name c.c_metrics;
        Printf.printf "  %-14s correct=%b attempted=%d failed=%d digest=%s\n%!" name c.c_correct
          c.c_attempted c.c_failed c.c_digest;
        Hashtbl.replace per name (c :: Option.value ~default:[] (Hashtbl.find_opt per name)))
      (rotate r names)
  done;
  let workload name =
    let cs = List.rev (Hashtbl.find per name) in
    let keys = List.map fst (List.hd cs).c_metrics in
    let value c k = Option.value ~default:nan (List.assoc_opt k c.c_metrics) in
    {
      Results.name;
      attempted = List.map (fun c -> c.c_attempted) cs;
      failed = List.map (fun c -> c.c_failed) cs;
      digests = List.map (fun c -> c.c_digest) cs;
      flags = List.sort_uniq compare (List.concat_map (fun c -> c.c_flags) cs);
      values = List.map (fun k -> (k, List.map (fun c -> value c k) cs)) keys;
    }
  in
  {
    Results.header =
      [
        ("schema", Json.String "hsched.suite/1");
        ("git_rev", Json.String (git_rev ()));
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("runs", Json.Int runs);
        ("size", Json.String (match size with Work.Full -> "full" | Work.Toy -> "toy"));
      ];
    workloads = List.map workload names;
  }

(* Summary table; true when every run verified and repeated its digest. *)
let summarise cat (res : Results.t) =
  Printf.printf "\n%-14s %-26s %-8s %12s %12s %12s\n" "workload" "metric" "unit" "median" "q1" "q3";
  List.for_all
    (fun (w : Results.workload) ->
      List.iter
        (fun (k, xs) ->
          let a = Array.of_list xs in
          let q1, q3 = Stats.quartiles a in
          Printf.printf "%-14s %-26s %-8s %12.5g %12.5g %12.5g\n" w.name k (Registry.unit_of cat k)
            (Stats.median a) q1 q3)
        w.values;
      List.iter (fun f -> Printf.printf "%-14s flagged: %s\n" w.name f) w.flags;
      let failed = List.fold_left ( + ) 0 w.failed in
      let digests = List.sort_uniq compare w.digests in
      if failed > 0 then Printf.printf "%-14s FAILED verification on %d op(s)\n" w.name failed;
      if List.length digests > 1 then
        Printf.printf "%-14s FAILED: output digest differs between runs\n" w.name;
      failed = 0 && List.length digests = 1)
    res.Results.workloads

let run_cmd opts =
  let cat = catalogue opts in
  let res =
    run ~bench:(bench_path opts) ~cat
      ~hsched:(opt opts "hsched" ~default:(default_hsched ()) Option.some)
      ~seed:(opt opts "seed" ~default:1 int_of_string_opt)
      ~runs:(opt opts "runs" ~default:3 int_of_string_opt)
      ~seconds:(opt opts "seconds" ~default:cat.run_seconds float_of_string_opt)
      ~size:(opt opts "size" ~default:Work.Full size_of)
  in
  let out = opt opts "out" ~default:"results.json" Option.some in
  Results.write cat out res;
  let ok = summarise cat res in
  Printf.printf "wrote %s\n" out;
  if not ok then exit 1

(* ---- trace -------------------------------------------------------------- *)

(* Each workload runs once untraced and then once traced, on the same
   seed and for the same time; trace.overhead_pct compares the two
   throughputs. *)
let trace_cmd opts =
  let cat = catalogue opts in
  let bench = bench_path opts in
  let hsched = opt opts "hsched" ~default:(default_hsched ()) Option.some in
  let seed = opt opts "seed" ~default:1 int_of_string_opt in
  let seconds = opt opts "seconds" ~default:cat.run_seconds float_of_string_opt in
  let size = opt opts "size" ~default:Work.Full size_of in
  let dir = opt opts "out" ~default:"trace" Option.some in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let ok = ref true in
  let row name =
    Printf.printf "untraced %s\n%!" name;
    let untraced = child ~bench ~hsched ~seed ~seconds ~size ~traced:false name in
    Printf.printf "traced %s\n%!" name;
    let trace_out = Filename.concat dir (name ^ ".json") in
    let c = child ~bench ~hsched ~seed ~seconds ~size ~traced:true ~trace_out name in
    if not (untraced.c_correct && c.c_correct) then ok := false;
    let is_layer (k, _) =
      match Registry.find cat k with Some m -> m.Registry.kind = Registry.Layer | None -> false
    in
    let ops c = List.assoc "ops_per_s" c.c_metrics in
    let overhead = 100. *. ((ops untraced /. ops c) -. 1.) in
    let layer = List.filter is_layer c.c_metrics @ [ ("trace.overhead_pct", overhead) ] in
    print_metrics cat name layer;
    let entry (k, v) =
      ( k,
        Json.Obj
          [
            ("value", Json.Float v);
            ("unit", Json.String (Registry.unit_of cat k));
            ("moves", Json.String (Option.fold ~none:"" ~some:(fun m -> m.Registry.about) (Registry.find cat k)));
          ] )
    in
    (name, Json.Obj (List.map entry layer))
  in
  let rows = List.map row names in
  let path = Filename.concat dir "layers.json" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.String "hsched.suite.layers/1");
                ("git_rev", Json.String (git_rev ()));
                ("seed", Json.Int seed);
                ("workloads", Json.Obj rows);
              ]));
      output_char oc '\n');
  Printf.printf "wrote %s and one Chrome trace per workload\n" path;
  if not !ok then exit 1

(* ---- compare ------------------------------------------------------------ *)

let compare_cmd (opts, pos) =
  match pos with
  | [ a; b ] ->
      let cat = catalogue opts in
      let read f = try Results.read f with Failure e -> die "%s" e in
      if Results.compare cat (read a) (read b) then exit 1
  | _ -> die "usage: suite.exe compare A.json B.json"

(* ---- smoke -------------------------------------------------------------- *)

(* Verdicts [compare] must give on made-up runs, 3 against 3, of a
   higher-is-better metric with a 25% bound. *)
let judge_cases () =
  let m =
    { Registry.name = "ops_per_s"; unit_ = "1/s"; better = Registry.Higher; kind = Registry.End_to_end;
      bound = 0.25;
      floor = 0.; about = "" }
  in
  let case a b want =
    let got = Results.judge m (Array.of_list a) (Array.of_list b) in
    if got <> want then
      Some
        (Printf.sprintf "compare judged %s against %s %s, not %s"
           (String.concat "," (List.map string_of_float a))
           (String.concat "," (List.map string_of_float b))
           (Results.verdict_to_string got) (Results.verdict_to_string want))
    else None
  in
  List.filter_map Fun.id
    [
      case [ 100.; 101.; 102. ] [ 100.; 101.; 102. ] Results.Same;
      case [ 100.; 101.; 102. ] [ 70.; 71.; 72. ] Results.Worse;
      (* Wide spreads, every B run below every A run, medians 2% apart. *)
      case [ 100.; 101.; 160. ] [ 60.; 99.; 99.5 ] Results.Unresolved;
      (* Wide spreads, ordered, medians 40% apart. *)
      case [ 100.; 101.; 160. ] [ 40.; 60.; 99. ] Results.Worse;
      case [ 100.; 101.; 160. ] [ 60.; 105.; 99. ] Results.Unresolved;
      case [ 100.; 101.; 102. ] [ 100.; nan; 102. ] Results.Worse;
      case [ 100.; 101.; 102. ] [] Results.Worse;
      case [ nan; 101.; 102. ] [ 100.; 101.; 102. ] Results.Unresolved;
    ]

let smoke_cmd opts =
  let cat = catalogue opts in
  let bench = bench_path opts in
  let hsched = opt opts "hsched" ~default:(default_hsched ()) Option.some in
  let problems = ref (judge_cases ()) in
  let expect ok what = if not ok then problems := what :: !problems in
  expect (cat.workloads = names)
    (Printf.sprintf "%s lists the workloads %s, not %s" bench (String.concat "," cat.workloads)
       (String.concat "," names));
  (* Every workload reports every metric BENCHMARK.json lists. *)
  let lacking listed metrics what =
    List.iter
      (fun (m : Registry.t) -> expect (List.mem_assoc m.name metrics) (what ^ " lacks " ^ m.name))
      listed
  in
  let res = run ~bench ~cat ~hsched ~seed:1 ~runs:1 ~seconds:0. ~size:Work.Toy in
  Results.write cat "smoke.json" res;
  expect (summarise cat res) "a workload failed verification";
  List.iter (fun (w : Results.workload) -> lacking cat.end_to_end w.values w.name) res.workloads;
  List.iter
    (fun name ->
      let c = child ~bench ~hsched ~seed:1 ~seconds:0. ~size:Work.Toy ~traced:true name in
      expect c.c_correct (name ^ " failed verification when traced");
      lacking cat.per_layer c.c_metrics (name ^ " traced"))
    names;
  expect
    (not (Results.compare cat (Results.read "smoke.json") (Results.read "smoke.json")))
    "compare flags the smoke result against itself";
  List.iter (fun p -> prerr_endline ("suite smoke: " ^ p)) (List.rev !problems);
  if !problems <> [] then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "workload" :: rest -> workload_cmd (fst (parse rest))
  | _ :: "run" :: rest -> run_cmd (fst (parse rest))
  | _ :: "trace" :: rest -> trace_cmd (fst (parse rest))
  | _ :: "compare" :: rest -> compare_cmd (parse rest)
  | _ :: "smoke" :: rest -> smoke_cmd (fst (parse rest))
  | [ _; "kernel" ] -> Printf.printf "%.9f\n" (Work.timed_kernel ())
  | _ -> die "usage: suite.exe (run|trace|compare|workload|smoke) [options]"
