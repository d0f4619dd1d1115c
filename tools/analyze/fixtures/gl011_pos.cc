// gl-analyze-expect: GL011
//
// A class owning a mutex with a mutable member that carries no
// GL_GUARDED_BY annotation, once with gl::Mutex and once with std::mutex.
// The analyzer only sees tokens, so the annotation macros are declared
// locally (the real ones live in src/common/thread_annotations.h).

#include <mutex>

#define GL_GUARDED_BY(x)

namespace fixture {

class Mutex {
 public:
  void Lock();
  void Unlock();
};

class Registry {
 public:
  void Set(int v);

 private:
  Mutex mu_;
  int guarded_ GL_GUARDED_BY(mu_) = 0;
  int unguarded_ = 0;  // <-- GL011: shared mutable state, no annotation
};

class Cache {
 public:
  void Put(int v);

 private:
  std::mutex mu_;
  int last_ = 0;  // <-- GL011: same with a std::mutex
};

}  // namespace fixture
