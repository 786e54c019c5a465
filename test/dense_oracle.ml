(* Dense two-phase tableau simplex over exact rationals: the oracle of
   the LP differential suite (test_revised.ml).

   Deliberately plain: one cold solve, no budgets, warm starts,
   certificates or telemetry, and Bland's rule throughout (smallest
   eligible entering column; minimum ratio, ties to the smallest basic
   column), which terminates from any basis.  It shares nothing with
   the engine under test (Hs_lp.Simplex, a sparse revised simplex) but
   the problem type, so the two agree only by both being right.

   Conventions:
   - columns [0 .. nvars-1]            original variables
   - columns [nvars .. art_start-1]    slack / surplus variables
   - columns [art_start .. ncols-1]    artificial variables (phase 1 only)
   - each row array has length ncols+1, the last entry being the rhs
   - the cost row has the same length; its last entry holds the negated
     current objective value and is updated by the same pivot operations. *)

open Hs_lp
module Q = Hs_numeric.Q

type solution = { x : Q.t array; objective : Q.t; basic : bool array }
type result = Optimal of solution | Infeasible | Unbounded

type tableau = {
  mutable rows : Q.t array array;
  mutable basis : int array;
  ncols : int;
  nvars : int;
  art_start : int;
}

let pivot t cost ~row ~col =
  let prow = t.rows.(row) in
  let piv = prow.(col) in
  for j = 0 to t.ncols do
    prow.(j) <- Q.div prow.(j) piv
  done;
  let eliminate r =
    if r != prow then begin
      let f = r.(col) in
      if Q.sign f <> 0 then
        for j = 0 to t.ncols do
          r.(j) <- Q.sub r.(j) (Q.mul f prow.(j))
        done
    end
  in
  Array.iter eliminate t.rows;
  eliminate cost;
  t.basis.(row) <- col

let entering cost ~max_col =
  let rec go j =
    if j >= max_col then None else if Q.sign cost.(j) < 0 then Some j else go (j + 1)
  in
  go 0

let leaving t ~col =
  let best = ref None in
  Array.iteri
    (fun r row ->
      if Q.sign row.(col) > 0 then begin
        let ratio = Q.div row.(t.ncols) row.(col) in
        match !best with
        | None -> best := Some (r, ratio)
        | Some (br, bratio) ->
            let c = Q.compare ratio bratio in
            if c < 0 || (c = 0 && t.basis.(r) < t.basis.(br)) then best := Some (r, ratio)
      end)
    t.rows;
  Option.map fst !best

let rec optimize t cost ~max_col =
  match entering cost ~max_col with
  | None -> `Optimal
  | Some col -> (
      match leaving t ~col with
      | None -> `Unbounded
      | Some row ->
          pivot t cost ~row ~col;
          optimize t cost ~max_col)

let build (p : Q.t Lp_problem.t) =
  let open Lp_problem in
  let nvars = p.nvars in
  let raw =
    List.map
      (fun c ->
        let coeffs = Array.make nvars Q.zero in
        List.iter (fun (v, k) -> coeffs.(v) <- Q.add coeffs.(v) k) c.terms;
        (* Ensure a non-negative rhs, flipping the relation as needed. *)
        if Q.sign c.rhs < 0 then
          ( Array.map Q.neg coeffs,
            (match c.rel with Le -> Ge | Ge -> Le | Eq -> Eq),
            Q.neg c.rhs )
        else (coeffs, c.rel, c.rhs))
      p.constrs
  in
  let count f = List.length (List.filter (fun (_, rel, _) -> f rel) raw) in
  let nslack = count (fun rel -> rel <> Eq) in
  let nart = count (fun rel -> rel <> Le) in
  let art_start = nvars + nslack in
  let ncols = art_start + nart in
  let rows = Array.init (List.length raw) (fun _ -> Array.make (ncols + 1) Q.zero) in
  let basis = Array.make (List.length raw) (-1) in
  let next_slack = ref nvars and next_art = ref art_start in
  List.iteri
    (fun r (coeffs, rel, rhs) ->
      let row = rows.(r) in
      Array.blit coeffs 0 row 0 nvars;
      row.(ncols) <- rhs;
      if rel <> Eq then begin
        row.(!next_slack) <- (if rel = Le then Q.one else Q.neg Q.one);
        if rel = Le then basis.(r) <- !next_slack;
        incr next_slack
      end;
      if rel <> Le then begin
        row.(!next_art) <- Q.one;
        basis.(r) <- !next_art;
        incr next_art
      end)
    raw;
  { rows; basis; ncols; nvars; art_start }

(* Subtract multiples of the rows from the cost row so every basic
   column has reduced cost zero. *)
let canonicalise t cost =
  Array.iteri
    (fun r b ->
      let f = cost.(b) in
      if Q.sign f <> 0 then
        for j = 0 to t.ncols do
          cost.(j) <- Q.sub cost.(j) (Q.mul f t.rows.(r).(j))
        done)
    t.basis

(* Phase 1: minimise the sum of artificial variables; feasible iff the
   optimum is zero. *)
let phase1 t =
  let cost = Array.make (t.ncols + 1) Q.zero in
  for j = t.art_start to t.ncols - 1 do
    cost.(j) <- Q.one
  done;
  canonicalise t cost;
  match optimize t cost ~max_col:t.ncols with
  | `Unbounded -> assert false (* bounded below by zero *)
  | `Optimal -> Q.sign cost.(t.ncols) = 0

(* Pivot artificials out of the basis; delete the rows where no
   structural or slack column can replace them (redundant rows). *)
let drive_out_artificials t cost =
  let keep = Array.make (Array.length t.rows) true in
  Array.iteri
    (fun r b ->
      if b >= t.art_start then begin
        let rec find j =
          if j >= t.art_start then None
          else if Q.sign t.rows.(r).(j) <> 0 then Some j
          else find (j + 1)
        in
        match find 0 with
        | Some col -> pivot t cost ~row:r ~col
        | None -> keep.(r) <- false
      end)
    t.basis;
  let kept = List.filter (fun r -> keep.(r)) (List.init (Array.length t.rows) Fun.id) in
  t.rows <- Array.of_list (List.map (fun r -> t.rows.(r)) kept);
  t.basis <- Array.of_list (List.map (fun r -> t.basis.(r)) kept)

let solve ~maximize (p : Q.t Lp_problem.t) =
  let t = build p in
  if not (phase1 t) then Infeasible
  else begin
    let cost = Array.make (t.ncols + 1) Q.zero in
    List.iter
      (fun (v, c) -> cost.(v) <- Q.add cost.(v) (if maximize then Q.neg c else c))
      p.Lp_problem.objective;
    drive_out_artificials t cost;
    canonicalise t cost;
    match optimize t cost ~max_col:t.art_start with
    | `Unbounded -> Unbounded
    | `Optimal ->
        let x = Array.make t.nvars Q.zero and basic = Array.make t.nvars false in
        Array.iteri
          (fun r b ->
            if b < t.nvars then begin
              x.(b) <- t.rows.(r).(t.ncols);
              basic.(b) <- true
            end)
          t.basis;
        let value = Q.neg cost.(t.ncols) in
        Optimal { x; objective = (if maximize then Q.neg value else value); basic }
  end
