type 'message t = {
  mutable node : int;
  round : int;
  mutable neighbors : int array;
  probe : int -> bool;
  send : int -> 'message -> unit;
  random_int : int -> int;
}
