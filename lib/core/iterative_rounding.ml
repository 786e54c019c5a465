(** Generic iterative rounding for assignment + packing LPs (Section VI).

    This implements the engine behind both memory extensions:

    - Theorem VI.1 (Model 1) uses the classic Shmoys–Tardos-style rule of
      dropping a packing constraint once few fractional variables remain
      in its support ({!Support_at_most}), and
    - Lemma VI.2 (Model 2) drops a constraint once the {e normalised
      weight} of its fractional support is at most [ρ·b_l]
      ({!Weight_at_most}), which bounds the final violation by
      [(1 + ρ)·b_l] while the assignment constraints hold {e exactly}.

    The loop re-solves the residual LP to a vertex (exact arithmetic),
    freezes integral variables, and otherwise drops one relaxable
    packing row; every step makes progress, so it terminates after at
    most [#variables + #rows] rounds. *)

module Q = Hs_numeric.Q
module LP = Hs_lp.Lp_problem
module Solver = Hs_lp.Simplex.Make (Hs_lp.Field.Exact)

type var = {
  job : int;
  opt : int;  (** caller-side option identifier *)
  col : (int * Q.t) list;  (** sparse packing coefficients (row, a_lq ≥ 0) *)
}

type problem = {
  njobs : int;
  vars : var list;
  bounds : Q.t array;  (** b_l > 0 *)
  names : string array;  (** one label per packing row *)
}

type policy =
  | Support_at_most of int
      (** drop a row whose fractional support has at most k variables *)
  | Weight_at_most of Q.t
      (** drop a row l with Σ_{q ∈ support} a_lq ≤ ρ·b_l (Lemma VI.2) *)

type outcome = {
  choice : int array;  (** job → chosen option id *)
  usage : Q.t array;  (** final left-hand sides a_l·z̄ *)
  dropped : int list;  (** rows dropped during rounding *)
  rounds : int;
  fallback_drops : int;
      (** rows dropped without satisfying the policy (should stay 0; a
          positive count flags that the structural guarantee failed) *)
}

let solve (p : problem) (policy : policy) : (outcome, string) result =
  let nrows = Array.length p.bounds in
  if Array.exists (fun b -> Q.sign b <= 0) p.bounds then
    Error "invalid instance: iterative_rounding: bounds must be positive"
  else begin
    let choice = Array.make p.njobs (-1) in
    let active_rows = Array.make nrows true in
    let residual = Array.copy p.bounds in
    let dropped = ref [] and rounds = ref 0 and fallback = ref 0 in
    let fix v =
      choice.(v.job) <- v.opt;
      List.iter (fun (l, a) -> residual.(l) <- Q.sub residual.(l) a) v.col
    in
    let vars = ref p.vars in
    let exception Fail of string in
    try
      while Array.exists (fun c -> c < 0) choice do
        incr rounds;
        if !rounds > (List.length p.vars + nrows + p.njobs) * 2 + 8 then
          raise (Fail "iterative_rounding: no progress (internal)");
        let live = List.filter (fun v -> choice.(v.job) < 0) !vars in
        (* Jobs reduced to a single option are forced. *)
        let counts = Array.make p.njobs 0 in
        List.iter (fun v -> counts.(v.job) <- counts.(v.job) + 1) live;
        let forced =
          List.filter (fun v -> counts.(v.job) = 1) live
        in
        if forced <> [] then List.iter fix forced
        else begin
          let jobs_live =
            List.sort_uniq compare (List.map (fun v -> v.job) live)
          in
          List.iter
            (fun j -> if counts.(j) = 0 then raise (Fail (Printf.sprintf "job %d has no options left" j)))
            jobs_live;
          if jobs_live = [] then ()
          else begin
            (* Residual LP over the live variables. *)
            let arr = Array.of_list live in
            let nv = Array.length arr in
            let job_terms = Hashtbl.create 16 in
            Array.iteri
              (fun idx v ->
                let cur = Option.value ~default:[] (Hashtbl.find_opt job_terms v.job) in
                Hashtbl.replace job_terms v.job ((idx, Q.one) :: cur))
              arr;
            let assign_cs =
              List.map
                (fun j ->
                  LP.constr ~name:(Printf.sprintf "assign(%d)" j)
                    (Hashtbl.find job_terms j) LP.Eq Q.one)
                jobs_live
            in
            let pack_cs =
              List.filter_map
                (fun l ->
                  if not active_rows.(l) then None
                  else begin
                    let terms = ref [] in
                    Array.iteri
                      (fun idx v ->
                        match List.assoc_opt l v.col with
                        | Some a when Q.sign a > 0 -> terms := (idx, a) :: !terms
                        | _ -> ())
                      arr;
                    Some (LP.constr ~name:p.names.(l) !terms LP.Le residual.(l))
                  end)
                (List.init nrows (fun l -> l))
            in
            match Solver.feasible (LP.make ~nvars:nv (assign_cs @ pack_cs)) with
            | Solver.Infeasible_certificate _ ->
                raise (Fail "iterative_rounding: residual LP infeasible")
            | Solver.Feasible sol ->
                let progress = ref false in
                let kept = ref [] in
                Array.iteri
                  (fun idx v ->
                    let z = sol.x.(idx) in
                    if Q.is_zero z then progress := true (* option eliminated *)
                    else if Q.equal z Q.one then begin
                      if choice.(v.job) < 0 then fix v;
                      progress := true
                    end
                    else kept := v :: !kept)
                  arr;
                (* Keep only surviving options of still-open jobs. *)
                vars :=
                  List.filter (fun v -> choice.(v.job) < 0 && List.memq v !kept) !vars;
                if not !progress then begin
                  (* Vertex fully fractional: drop one packing row. *)
                  let support l =
                    List.fold_left
                      (fun (cnt, w) v ->
                        match List.assoc_opt l v.col with
                        | Some a when Q.sign a > 0 -> (cnt + 1, Q.add w a)
                        | _ -> (cnt, w))
                      (0, Q.zero) !vars
                  in
                  let candidate =
                    List.init nrows (fun l -> l)
                    |> List.filter (fun l -> active_rows.(l))
                    |> List.filter_map (fun l ->
                           let cnt, w = support l in
                           let ok =
                             match policy with
                             | Support_at_most k -> cnt <= k
                             | Weight_at_most rho -> Q.leq w (Q.mul rho p.bounds.(l))
                           in
                           if ok then Some (l, w) else None)
                  in
                  match candidate with
                  | (l, _) :: _ ->
                      active_rows.(l) <- false;
                      dropped := l :: !dropped
                  | [] ->
                      (* Structural guarantee failed: drop the row with the
                         smallest normalised support weight and record it. *)
                      incr fallback;
                      let worst = ref None in
                      List.iteri
                        (fun l active ->
                          if active then begin
                            let _, w = support l in
                            let ratio = Q.div w p.bounds.(l) in
                            match !worst with
                            | None -> worst := Some (l, ratio)
                            | Some (_, r) -> if Q.lt ratio r then worst := Some (l, ratio)
                          end)
                        (Array.to_list active_rows);
                      (match !worst with
                      | Some (l, _) ->
                          active_rows.(l) <- false;
                          dropped := l :: !dropped
                      | None -> raise (Fail "iterative_rounding: nothing to drop"))
                end
          end
        end
      done;
      let usage = Array.make nrows Q.zero in
      Array.iteri
        (fun job opt ->
          List.iter
            (fun v ->
              if v.job = job && v.opt = opt then
                List.iter (fun (l, a) -> usage.(l) <- Q.add usage.(l) a) v.col)
            p.vars)
        choice;
      Ok
        {
          choice;
          usage;
          dropped = List.rev !dropped;
          rounds = !rounds;
          fallback_drops = !fallback;
        }
    with Fail msg -> Error ("internal error: " ^ msg)
  end
