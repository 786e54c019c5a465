(* Compressed sparse row matrices over a simplex field; see sparse.mli. *)

module Make (F : Field.S) = struct
  type t = {
    nrows : int;
    ncols : int;
    rptr : int array;  (* length nrows + 1 *)
    cidx : int array;  (* length nnz, column index per entry *)
    vals : F.t array;  (* length nnz *)
  }

  (* Build from per-row term lists: a stable sort by column puts the
     duplicates of a column next to each other in their input order,
     so one merge pass sums them left to right and drops the sums that
     vanish under the field's zero test. *)
  let of_rows ~nrows ~ncols rows =
    if Array.length rows <> nrows then invalid_arg "Sparse.of_rows: row count";
    let cleaned =
      Array.map
        (fun terms ->
          List.iter
            (fun (j, _) ->
              if j < 0 || j >= ncols then invalid_arg "Sparse.of_rows: column out of range")
            terms;
          let rec merge acc = function
            | (j, v) :: (j', v') :: rest when j = j' -> merge acc ((j, F.add v v') :: rest)
            | (j, v) :: rest -> merge (if F.is_zero v then acc else (j, v) :: acc) rest
            | [] -> List.rev acc
          in
          merge [] (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) terms))
        rows
    in
    let rptr = Array.make (nrows + 1) 0 in
    Array.iteri (fun r terms -> rptr.(r + 1) <- rptr.(r) + List.length terms) cleaned;
    let total = rptr.(nrows) in
    let cidx = Array.make total 0 and vals = Array.make total F.zero in
    Array.iteri
      (fun r terms ->
        List.iteri
          (fun k (j, v) ->
            cidx.(rptr.(r) + k) <- j;
            vals.(rptr.(r) + k) <- v)
          terms)
      cleaned;
    { nrows; ncols; rptr; cidx; vals }

  (* Dot product of row [r] with a dense vector. *)
  let dot_row m r (x : F.t array) =
    let acc = ref F.zero in
    for k = m.rptr.(r) to m.rptr.(r + 1) - 1 do
      acc := F.add !acc (F.mul m.vals.(k) x.(m.cidx.(k)))
    done;
    !acc

  (* Two-pass CSR transpose: counting sort by column, stable within a
     column, so transposed rows come out sorted by (old) row index. *)
  let transpose m =
    let total = m.rptr.(m.nrows) in
    let rptr = Array.make (m.ncols + 1) 0 in
    for k = 0 to total - 1 do
      rptr.(m.cidx.(k) + 1) <- rptr.(m.cidx.(k) + 1) + 1
    done;
    for j = 1 to m.ncols do
      rptr.(j) <- rptr.(j) + rptr.(j - 1)
    done;
    let fill = Array.copy rptr in
    let cidx = Array.make total 0 and vals = Array.make total F.zero in
    for r = 0 to m.nrows - 1 do
      for k = m.rptr.(r) to m.rptr.(r + 1) - 1 do
        let j = m.cidx.(k) in
        cidx.(fill.(j)) <- r;
        vals.(fill.(j)) <- m.vals.(k);
        fill.(j) <- fill.(j) + 1
      done
    done;
    { nrows = m.ncols; ncols = m.nrows; rptr; cidx; vals }

  (* Scatter row [r] into a dense vector (previously cleared). *)
  let scatter_row m r (d : F.t array) =
    for k = m.rptr.(r) to m.rptr.(r + 1) - 1 do
      d.(m.cidx.(k)) <- m.vals.(k)
    done
end
