//! Typed array storage shared by the CSR layouts: each array is either
//! an owned `Vec` or a range of an `mmap`ed snapshot file (page-cache
//! backed, zero copy). [`Storage`] captures the pointer and length once
//! when it is built, so reading it is a plain slice access whichever way
//! it is backed.

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

#[cfg(unix)]
mod mm {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only private file mapping (raw `mmap`, unmapped on drop).
    pub struct Mapping {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ and never mutated.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        pub fn map(file: &File, len: usize) -> std::io::Result<Self> {
            if len == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "cannot map an empty file",
                ));
            }
            // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of a file we
            // hold open; failure is reported via MAP_FAILED.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Self {
                ptr: ptr as *const u8,
                len,
            })
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: the mapping covers len bytes for self's lifetime.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: exactly the region returned by mmap.
            unsafe { munmap(self.ptr as *mut core::ffi::c_void, self.len) };
        }
    }
}

/// 8-byte-aligned owned byte buffer — the non-unix (or mmap-failure)
/// fallback backing store, aligned so the in-place casts stay valid.
pub(crate) struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    fn read_from(path: &Path) -> std::io::Result<Self> {
        let mut f = File::open(path)?;
        let len = f.metadata()?.len() as usize;
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the Vec<u64> owns at least `len` writable bytes.
        let buf = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, len) };
        f.read_exact(buf)?;
        Ok(Self { words, len })
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: words owns >= len bytes.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }
}

/// A whole snapshot file held in place: an `mmap`, or an aligned owned
/// copy where mapping is unavailable. Its base is at least 8-aligned.
pub(crate) enum Backing {
    #[cfg(unix)]
    Mapped(mm::Mapping),
    Owned(AlignedBytes),
}

impl Backing {
    /// Map `path` read-only, falling back to an aligned read.
    pub(crate) fn open(path: &Path) -> std::io::Result<Arc<Self>> {
        #[cfg(unix)]
        {
            let file = File::open(path)?;
            let len = file.metadata()?.len() as usize;
            if let Ok(m) = mm::Mapping::map(&file, len) {
                return Ok(Arc::new(Backing::Mapped(m)));
            }
        }
        Ok(Arc::new(Backing::Owned(AlignedBytes::read_from(path)?)))
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Backing::Mapped(m) => m.bytes(),
            Backing::Owned(b) => b.bytes(),
        }
    }
}

/// Plain old data: no padding, no pointers, and every bit pattern is a
/// valid value — what may be read straight out of file bytes. Sealed
/// (this module is private), so it also seals
/// [`EdgeWeight`](crate::EdgeWeight).
///
/// # Safety
///
/// Implement only for types meeting that description.
pub unsafe trait Pod: Copy + Default + 'static {}

// SAFETY: the unit type, primitive integers and floats are plain old data.
unsafe impl Pod for () {}
unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for usize {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}

/// What keeps a [`Storage`]'s memory alive.
enum Owner<T> {
    Vec(Vec<T>),
    Mapped(Arc<Backing>),
}

/// An immutable array: an owned `Vec`, or `len` [`Pod`] values read in
/// place from a [`Backing`].
pub(crate) struct Storage<T> {
    ptr: *const T,
    len: usize,
    owner: Owner<T>,
}

// SAFETY: a `Storage` is never written through, and its owner (a
// `Vec<T>` or an `Arc<Backing>`, both `Send + Sync` for such `T`) lives
// exactly as long as the pointer is used.
unsafe impl<T: Send + Sync> Send for Storage<T> {}
unsafe impl<T: Send + Sync> Sync for Storage<T> {}

impl<T> From<Vec<T>> for Storage<T> {
    fn from(v: Vec<T>) -> Self {
        Self {
            ptr: v.as_ptr(),
            len: v.len(),
            owner: Owner::Vec(v),
        }
    }
}

impl<T: Pod> Storage<T> {
    /// `len` values of `T` starting `start` bytes into `backing`.
    ///
    /// # Panics
    ///
    /// If the range leaves the backing or `start` is misaligned for `T`
    /// (the snapshot layout rules both out before calling this).
    pub(crate) fn mapped(backing: &Arc<Backing>, start: usize, len: usize) -> Self {
        let bytes = backing.bytes();
        let end = len
            .checked_mul(std::mem::size_of::<T>())
            .and_then(|b| b.checked_add(start));
        assert!(
            end.is_some_and(|e| e <= bytes.len()),
            "mapped array leaves the file"
        );
        let ptr = bytes[start..].as_ptr() as *const T;
        assert!(ptr.is_aligned(), "mapped array is misaligned");
        Self {
            ptr,
            len,
            owner: Owner::Mapped(Arc::clone(backing)),
        }
    }

    /// True when the values live in a mapped file rather than the heap.
    pub(crate) fn is_mapped(&self) -> bool {
        matches!(self.owner, Owner::Mapped(_))
    }
}

impl<T> Storage<T> {
    /// The array's size in bytes when it is served from a mapped file,
    /// 0 when it is owned — its share of
    /// [`GraphMemory::mapped_bytes`](crate::GraphMemory::mapped_bytes).
    pub(crate) fn mapped_bytes(&self) -> usize {
        match self.owner {
            Owner::Mapped(_) => std::mem::size_of_val::<[T]>(self),
            Owner::Vec(_) => 0,
        }
    }
}

impl<T> std::ops::Deref for Storage<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr`/`len` were taken from the owner when this storage
        // was built and the owner never changes: a `Vec`'s heap buffer
        // stays put when the `Vec` moves and is never resized here, and
        // `mapped` checked that the range lies inside the backing, which
        // the `Arc` keeps alive. A mapped `T` is `Pod`, so every bit
        // pattern is a valid value, and `mapped` checked the alignment.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Clone> Clone for Storage<T> {
    fn clone(&self) -> Self {
        match &self.owner {
            Owner::Vec(v) => Self::from(v.clone()),
            Owner::Mapped(b) => Self {
                ptr: self.ptr,
                len: self.len,
                owner: Owner::Mapped(Arc::clone(b)),
            },
        }
    }
}

impl<T: PartialEq> PartialEq for Storage<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for Storage<T> {}

impl<T: std::fmt::Debug> std::fmt::Debug for Storage<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}
