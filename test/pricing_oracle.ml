(* The sparse revised simplex as it priced before incremental pricing:
   every pivot runs a fresh BTRAN of c_B and re-prices every column.
   The oracle of test_pricing_diff.ml, which holds Hs_lp.Simplex (which
   maintains its reduced costs along each pivot row instead) to the
   same pivots.

   Cut down to the cold exact feasibility solve, [feasible], with the
   same pricing rules, Dantzig's degenerate-run switch to Bland, Bland's
   leaving rule, drive-out, Farkas ray and pivot budget as the engine.
   No float pre-solve, no telemetry.

   Standard form and column numbering:
   - columns [0 .. nvars-1]            original variables
   - columns [nvars .. art_start-1]    slack / surplus variables
   - columns [art_start .. ncols-1]    artificial variables
   Rows with a negative rhs are negated first (flipping the relation). *)

open Hs_lp
module Q = Hs_numeric.Q
module S = Sparse.Make (Field.Exact)

type solution = { x : Q.t array; basic : bool array }
type feasibility = Feasible of solution | Infeasible_certificate of Q.t array
type pricing = Bland | Dantzig


type eta = { e_row : int; e_piv : Q.t; e_off : (int * Q.t) array }

type core = {
  cols : S.t;  (* row [j] of [cols] is column [j] of A *)
  nrows : int;
  nvars : int;
  art_start : int;
  ncols : int;
  flipped : bool array;
  basis : int array;
  in_basis : bool array;
  redundant : bool array;
  xb : Q.t array;
  mutable etas : eta list;  (* newest first *)
}

let charge (budget : Simplex.budget option) =
  match budget with
  | None -> ()
  | Some b ->
      if b.pivots_left <= 0 then raise Simplex.Pivot_limit
      else b.pivots_left <- b.pivots_left - 1

(* FTRAN: v ← B⁻¹ v, applying the etas oldest first. *)
let ftran core (v : Q.t array) =
  List.iter
    (fun e ->
      let t = Q.div v.(e.e_row) e.e_piv in
      v.(e.e_row) <- t;
      if Q.sign t <> 0 then
        Array.iter (fun (i, dv) -> v.(i) <- Q.sub v.(i) (Q.mul dv t)) e.e_off)
    (List.rev core.etas)

(* BTRAN: w ← B⁻ᵀ w, applying the etas newest first (transposed). *)
let btran core (w : Q.t array) =
  List.iter
    (fun e ->
      let acc = ref w.(e.e_row) in
      Array.iter
        (fun (i, dv) -> if Q.sign w.(i) <> 0 then acc := Q.sub !acc (Q.mul dv w.(i)))
        e.e_off;
      w.(e.e_row) <- Q.div !acc e.e_piv)
    core.etas

let direction core col =
  let d = Array.make core.nrows Q.zero in
  S.scatter_row core.cols col d;
  ftran core d;
  d

let btran_costs core (cost : Q.t array) =
  let y = Array.init core.nrows (fun r -> cost.(core.basis.(r))) in
  btran core y;
  y

let reduced_cost core cost (y : Q.t array) j = Q.sub cost.(j) (S.dot_row core.cols j y)

let objective_value core (cost : Q.t array) =
  let acc = ref Q.zero in
  for r = 0 to core.nrows - 1 do
    acc := Q.add !acc (Q.mul cost.(core.basis.(r)) core.xb.(r))
  done;
  !acc

let build (p : Q.t Lp_problem.t) =
  let open Lp_problem in
  let nvars = p.nvars in
  let raw =
    List.map
      (fun c ->
        if Q.sign c.rhs < 0 then
          ( List.map (fun (v, k) -> (v, Q.neg k)) c.terms,
            (match c.rel with Le -> Ge | Ge -> Le | Eq -> Eq),
            Q.neg c.rhs,
            true )
        else (c.terms, c.rel, c.rhs, false))
      p.constrs
  in
  let nrows = List.length raw in
  let count f = List.length (List.filter (fun (_, rel, _, _) -> f rel) raw) in
  let art_start = nvars + count (fun rel -> rel <> Eq) in
  let ncols = art_start + count (fun rel -> rel <> Le) in
  let rows = Array.make nrows [] in
  let xb = Array.make nrows Q.zero in
  let flipped = Array.make nrows false in
  let basis = Array.make nrows (-1) in
  let next_slack = ref nvars and next_art = ref art_start in
  List.iteri
    (fun r (terms, rel, rhs, flip) ->
      xb.(r) <- rhs;
      flipped.(r) <- flip;
      let slack sign =
        let s = !next_slack in
        incr next_slack;
        (s, sign)
      in
      let art () =
        let a = !next_art in
        incr next_art;
        basis.(r) <- a;
        (a, Q.one)
      in
      let aux =
        match rel with
        | Le ->
            let s = slack Q.one in
            basis.(r) <- fst s;
            [ s ]
        | Ge ->
            let s = slack (Q.neg Q.one) in
            [ s; art () ]
        | Eq -> [ art () ]
      in
      rows.(r) <- terms @ aux)
    raw;
  let in_basis = Array.make (Stdlib.max 1 ncols) false in
  Array.iter (fun c -> in_basis.(c) <- true) basis;
  {
    cols = S.transpose (S.of_rows ~nrows ~ncols rows);
    nrows;
    nvars;
    art_start;
    ncols;
    flipped;
    basis;
    in_basis;
    redundant = Array.make (Stdlib.max 1 nrows) false;
    xb;
    etas = [];
  }

(* Every pivot re-prices every nonbasic column from a fresh
   y = B⁻ᵀc_B: Bland takes the smallest eligible index, Dantzig the most
   negative reduced cost with ties to the earlier column. *)
let entering pricing core cost (y : Q.t array) =
  let best = ref None in
  (try
     for j = 0 to core.ncols - 1 do
       if not core.in_basis.(j) then begin
         let v = reduced_cost core cost y j in
         if Q.sign v < 0 then
           match (pricing, !best) with
           | Bland, _ ->
               best := Some (j, v);
               raise Exit
           | Dantzig, None -> best := Some (j, v)
           | Dantzig, Some (_, bv) -> if Q.compare v bv < 0 then best := Some (j, v)
       end
     done
   with Exit -> ());
  Option.map fst !best

(* Minimum ratio, ties to the smallest basic column; redundant rows
   never block. *)
let leaving core (d : Q.t array) =
  let best = ref None in
  for r = 0 to core.nrows - 1 do
    if (not core.redundant.(r)) && Q.sign d.(r) > 0 then begin
      let ratio = Q.div core.xb.(r) d.(r) in
      match !best with
      | None -> best := Some (r, ratio)
      | Some (br, bratio) ->
          let c = Q.compare ratio bratio in
          if c < 0 || (c = 0 && core.basis.(r) < core.basis.(br)) then best := Some (r, ratio)
    end
  done;
  Option.map fst !best

let pivot core ~row ~col (d : Q.t array) =
  let t = Q.div core.xb.(row) d.(row) in
  let off = ref [] in
  for i = core.nrows - 1 downto 0 do
    if i <> row && Q.sign d.(i) <> 0 then begin
      off := (i, d.(i)) :: !off;
      if Q.sign t <> 0 then core.xb.(i) <- Q.sub core.xb.(i) (Q.mul d.(i) t)
    end
  done;
  core.etas <- { e_row = row; e_piv = d.(row); e_off = Array.of_list !off } :: core.etas;
  core.xb.(row) <- t;
  core.in_basis.(core.basis.(row)) <- false;
  core.in_basis.(col) <- true;
  core.basis.(row) <- col

(* Phase 1 is bounded below by zero, so some row always blocks. *)
let optimize ~pricing ~budget core cost =
  let degenerate_limit = (2 * core.ncols) + 16 in
  let rec go pricing degenerate =
    let y = btran_costs core cost in
    match entering pricing core cost y with
    | None -> ()
    | Some col -> (
        let d = direction core col in
        match leaving core d with
        | None -> assert false
        | Some row ->
            let zero_progress = Q.sign core.xb.(row) = 0 in
            charge budget;
            pivot core ~row ~col d;
            if pricing = Bland then go Bland 0
            else if zero_progress then
              if degenerate + 1 > degenerate_limit then go Bland 0
              else go pricing (degenerate + 1)
            else go pricing 0)
  in
  go pricing 0

let phase1 ~pricing ~budget core =
  let cost = Array.make (Stdlib.max 1 core.ncols) Q.zero in
  for j = core.art_start to core.ncols - 1 do
    cost.(j) <- Q.one
  done;
  optimize ~pricing ~budget core cost;
  (Q.sign (objective_value core cost) = 0, btran_costs core cost)

(* Exchange pivots, never charged: each remaining artificial leaves for
   the first structural or aux column with a nonzero tableau entry in
   its row, or its row is marked redundant. *)
let drive_out core =
  for r = 0 to core.nrows - 1 do
    if (not core.redundant.(r)) && core.basis.(r) >= core.art_start then begin
      let beta = Array.make core.nrows Q.zero in
      beta.(r) <- Q.one;
      btran core beta;
      let rec find j =
        if j >= core.art_start then None
        else if Q.sign (S.dot_row core.cols j beta) <> 0 then Some j
        else find (j + 1)
      in
      match find 0 with
      | Some col -> pivot core ~row:r ~col (direction core col)
      | None -> core.redundant.(r) <- true
    end
  done

let extract core =
  let x = Array.make core.nvars Q.zero in
  let basic = Array.make core.nvars false in
  Array.iteri
    (fun r bcol ->
      if bcol < core.nvars then begin
        x.(bcol) <- core.xb.(r);
        basic.(bcol) <- true
      end)
    core.basis;
  { x; basic }

(* The Farkas ray: the phase-1 multipliers, one per constraint in
   declaration order, with the rhs flip undone. *)
let feasible ?(pricing = Dantzig) ?budget (p : Q.t Lp_problem.t) =
  let core = build p in
  let ok, y = phase1 ~pricing ~budget core in
  if not ok then
    Infeasible_certificate (Array.mapi (fun r flip -> if flip then Q.neg y.(r) else y.(r)) core.flipped)
  else begin
    drive_out core;
    Feasible (extract core)
  end
