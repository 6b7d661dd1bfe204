open Kpt_predicate

let states_array t = Array.of_list (Exec.states t)

let first_violation space p t =
  let sts = states_array t in
  let n = Array.length sts in
  let rec go i =
    if i >= n then None else if not (Space.holds_at space p sts.(i)) then Some i else go (i + 1)
  in
  go 0

let check_unless space ~p ~q t =
  let sts = states_array t in
  let n = Array.length sts in
  let sat pred i = Space.holds_at space pred sts.(i) in
  let rec go i =
    if i + 1 >= n then None
    else if sat p i && (not (sat q i)) && (not (sat p (i + 1))) && not (sat q (i + 1)) then
      Some i
    else go (i + 1)
  in
  go 0

let eventually space p t =
  let sts = states_array t in
  let n = Array.length sts in
  let rec go i =
    if i >= n then None else if Space.holds_at space p sts.(i) then Some i else go (i + 1)
  in
  go 0

let response_times space ~p ~q t =
  let sts = states_array t in
  let n = Array.length sts in
  let sat pred i = Space.holds_at space pred sts.(i) in
  let acc = ref [] in
  for i = 0 to n - 1 do
    if sat p i && not (sat q i) then begin
      let rec seek j = if j >= n then None else if sat q j then Some (j - i) else seek (j + 1) in
      match seek i with Some d -> acc := d :: !acc | None -> ()
    end
  done;
  List.rev !acc

let count_where space p t =
  List.fold_left
    (fun c st -> if Space.holds_at space p st then c + 1 else c)
    0 (Exec.states t)
